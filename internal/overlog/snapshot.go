package overlog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"
)

// Because a runtime's entire state is relations of first-class values,
// checkpointing is trivial — the BOOM papers make exactly this point
// about their NameNode versus HDFS's bespoke FsImage machinery. A
// snapshot is the persistent tables' tuples in a flat binary framing;
// event tables and sys:: catalog relations are derived or transient and
// are skipped.

const snapshotMagic = "OLGSNAP1"

// Snapshot writes every persistent user table not in skip to w.
func (r *Runtime) Snapshot(w io.Writer, skip ...string) error {
	names := make([]string, 0, len(r.tables))
	for name, tbl := range r.tables {
		d := tbl.Decl()
		if d.Event || isSysTable(name) || slices.Contains(skip, name) {
			continue
		}
		names = append(names, name)
	}
	// Table order decides the snapshot's bytes; sorted so snapshots of
	// identical state are identical (state-sync and replay compare them).
	sort.Strings(names)
	return r.SnapshotTables(w, names...)
}

// SnapshotTables writes only the named persistent tables to w, in the
// same framing as Snapshot. Used by crash-restart specs to checkpoint a
// protocol's durable subset (e.g. a Paxos acceptor's promised/accepted
// log) while everything else is rebuilt as soft state.
func (r *Runtime) SnapshotTables(w io.Writer, names ...string) error {
	for _, name := range names {
		tbl, ok := r.tables[name]
		if !ok {
			return fmt.Errorf("overlog: snapshot: table %q not declared", name)
		}
		if tbl.Decl().Event {
			return fmt.Errorf("overlog: snapshot: table %q is an event table", name)
		}
	}
	names = append([]string(nil), names...)
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := writeUvarint(bw, uint64(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		tbl := r.tables[name]
		if err := writeString(bw, name); err != nil {
			return err
		}
		tuples := tbl.Tuples()
		if err := writeUvarint(bw, uint64(len(tuples))); err != nil {
			return err
		}
		for _, tp := range tuples {
			if err := writeUvarint(bw, uint64(len(tp.Vals))); err != nil {
				return err
			}
			for _, v := range tp.Vals {
				data, err := v.MarshalBinary()
				if err != nil {
					return fmt.Errorf("overlog: snapshot %s: %w", name, err)
				}
				if err := writeBytes(bw, data); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// RestoreSnapshot loads a snapshot into the runtime: tables must
// already be declared (install the same programs first). Restored
// tuples seed the next step's deltas, so derived views rebuild
// incrementally on the first step after restore. Unknown tables in the
// snapshot are an error (schema mismatch should be loud).
func (r *Runtime) RestoreSnapshot(rd io.Reader) error {
	return r.restoreSnapshot(rd, false)
}

// RestoreSnapshotSilent loads a snapshot without seeding deltas: the
// restored tuples become base facts that future joins can scan, but no
// rules re-fire over them. This models state whose downstream effects
// were already applied before the checkpoint — e.g. a replicated
// master's decided log, which must be queryable after restart but must
// not replay through the gateway's apply rule.
func (r *Runtime) RestoreSnapshotSilent(rd io.Reader) error {
	return r.restoreSnapshot(rd, true)
}

func (r *Runtime) restoreSnapshot(rd io.Reader, silent bool) error {
	br := bufio.NewReader(rd)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("overlog: restore: %w", err)
	}
	if string(magic) != snapshotMagic {
		return fmt.Errorf("overlog: restore: bad magic %q", magic)
	}
	nTables, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	for t := uint64(0); t < nTables; t++ {
		name, err := readString(br)
		if err != nil {
			return err
		}
		if _, ok := r.tables[name]; !ok {
			return fmt.Errorf("overlog: restore: snapshot table %q not declared", name)
		}
		nTuples, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		for i := uint64(0); i < nTuples; i++ {
			arity, err := binary.ReadUvarint(br)
			if err != nil {
				return err
			}
			vals := make([]Value, arity)
			for c := uint64(0); c < arity; c++ {
				data, err := readBytes(br)
				if err != nil {
					return err
				}
				if err := vals[c].UnmarshalBinary(data); err != nil {
					return fmt.Errorf("overlog: restore %s: %w", name, err)
				}
			}
			tp := NewTuple(name, vals...)
			if silent {
				if _, _, err := r.tables[name].Insert(tp); err != nil {
					return err
				}
			} else if _, err := r.insertLocal(tp, "restore"); err != nil {
				return err
			}
		}
	}
	return nil
}

func isSysTable(name string) bool {
	return len(name) > 5 && name[:5] == "sys::"
}

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeBytes(w *bufio.Writer, b []byte) error {
	if err := writeUvarint(w, uint64(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

func writeString(w *bufio.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readBytes(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > 1<<30 {
		return nil, fmt.Errorf("overlog: restore: implausible field size %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

func readString(r *bufio.Reader) (string, error) {
	b, err := readBytes(r)
	return string(b), err
}
