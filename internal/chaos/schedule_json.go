package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Schedules serialize as JSON arrays of actions so a violating fault
// plan is a file: save it from a sweep, attach it to a bug report,
// replay it with `boom-chaos -schedule file.json` — against either
// transport, since both drivers consume the same Schedule.

// validKinds gates deserialized schedules: a typo'd kind must fail the
// load, not silently no-op in Apply.
var validKinds = map[ActionKind]bool{
	Kill: true, Revive: true, CrashRestart: true,
	Partition: true, Heal: true, LossBurst: true, SlowLink: true,
}

// HorizonMS bounds a schedule: generated ones end before 40 s, and a
// later time is a typo or a sum that overflows past its kill.
const HorizonMS = 3_600_000

// Validate checks a schedule is executable: known kinds, the fields
// that kind requires, non-negative times that end within HorizonMS.
func (s Schedule) Validate() error {
	for i, a := range s {
		if !validKinds[a.Kind] {
			return fmt.Errorf("chaos: action %d: unknown kind %q", i, a.Kind)
		}
		if a.AtMS < 0 || a.DurMS < 0 || a.LatMS < 0 {
			return fmt.Errorf("chaos: action %d (%s): negative time", i, a.Kind)
		}
		if a.AtMS > HorizonMS || a.DurMS > HorizonMS-a.AtMS {
			return fmt.Errorf("chaos: action %d (%s): ends past the %d ms horizon", i, a.Kind, HorizonMS)
		}
		switch a.Kind {
		case Kill, Revive, CrashRestart:
			if a.Node == "" {
				return fmt.Errorf("chaos: action %d (%s): missing node", i, a.Kind)
			}
		case Partition, Heal, SlowLink:
			if a.A == "" || a.B == "" {
				return fmt.Errorf("chaos: action %d (%s): missing link endpoints", i, a.Kind)
			}
		case LossBurst:
			if a.Rate < 0 || a.Rate > 1 {
				return fmt.Errorf("chaos: action %d (%s): rate %v outside [0,1]", i, a.Kind, a.Rate)
			}
		}
	}
	return nil
}

// WriteJSON renders the schedule as indented JSON.
func (s Schedule) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode([]Action(s))
}

// SaveSchedule writes a schedule to a file.
func SaveSchedule(path string, s Schedule) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := s.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// ReadSchedule parses and validates a JSON schedule.
func ReadSchedule(r io.Reader) (Schedule, error) {
	var acts []Action
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&acts); err != nil {
		return nil, fmt.Errorf("chaos: schedule: %w", err)
	}
	s := Schedule(acts)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadSchedule reads a schedule file.
func LoadSchedule(path string) (Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSchedule(f)
}
