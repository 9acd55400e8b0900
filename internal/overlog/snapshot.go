package overlog

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Because a runtime's entire state is relations of first-class values,
// checkpointing is trivial — the BOOM papers make exactly this point
// about their NameNode versus HDFS's bespoke FsImage machinery. A
// snapshot is the durable tables' tuples in a flat binary framing; what
// survives a crash is declared beside the table (`keys(0) durable`), so
// every other table is soft state that a restarted node rebuilds.

const snapshotMagic = "OLGSNAP1"

// Snapshot writes the durable tables of the installed programs to w.
func (r *Runtime) Snapshot(w io.Writer) error {
	var names []string
	for name, tbl := range r.tables {
		if tbl.Decl().Durable {
			names = append(names, name)
		}
	}
	// Table order decides the snapshot's bytes; sorted so snapshots of
	// identical state are identical (state-sync and replay compare them).
	sort.Strings(names)
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := writeUvarint(bw, uint64(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		if err := writeString(bw, name); err != nil {
			return err
		}
		tuples := r.tables[name].Tuples()
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

// RestoreSnapshot loads a snapshot into the runtime. Every table in it
// must be declared durable by an installed program (install the same
// programs first): a table none declares durable is an error naming
// it, so a restart that left a program out fails loudly. Restored
// tuples seed the next step's deltas, so derived views rebuild
// incrementally on the first step after restore.
func (r *Runtime) RestoreSnapshot(rd io.Reader) error {
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
		tbl, ok := r.tables[name]
		if !ok || !tbl.Decl().Durable {
			return fmt.Errorf("overlog: restore: snapshot table %q is not declared durable", name)
		}
		nTuples, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		want := uint64(tbl.Decl().Arity())
		for i := uint64(0); i < nTuples; i++ {
			arity, err := binary.ReadUvarint(br)
			if err != nil {
				return err
			}
			if arity != want {
				return fmt.Errorf("overlog: restore %s: tuple arity %d, declared %d", name, arity, want)
			}
			vals := make([]Value, arity)
			for c := range vals {
				data, err := readBytes(br)
				if err != nil {
					return err
				}
				if err := vals[c].UnmarshalBinary(data); err != nil {
					return fmt.Errorf("overlog: restore %s: %w", name, err)
				}
			}
			if _, err := r.insertLocal(NewTuple(name, vals...), "restore"); err != nil {
				return err
			}
		}
	}
	return nil
}

// Restart rebuilds a crashed node on fresh: it snapshots prev's durable
// tables, runs install on fresh, then restores the image into fresh.
// prev is the crashed runtime, frozen since the crash; everything it
// held outside its durable tables is lost. Because the restore comes
// last, install must install every program that declares a table in
// the image, or Restart fails naming the table.
func Restart(prev, fresh *Runtime, install func(*Runtime) error) error {
	var image bytes.Buffer
	if err := prev.Snapshot(&image); err != nil {
		return err
	}
	if err := install(fresh); err != nil {
		return err
	}
	return fresh.RestoreSnapshot(&image)
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
	// Grown as bytes arrive, so a corrupt size costs no more memory
	// than the input that backs it.
	var b bytes.Buffer
	if _, err := io.CopyN(&b, r, int64(n)); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func readString(r *bufio.Reader) (string, error) {
	b, err := readBytes(r)
	return string(b), err
}
