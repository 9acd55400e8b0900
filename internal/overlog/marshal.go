package overlog

import (
	"encoding/binary"
	"fmt"
	"math"
)

// MarshalBinary implements encoding.BinaryMarshaler so tuples can cross
// real network transports (gob). Opaque (KindAny) values cannot be
// marshaled: the data plane keeps payloads as strings on the wire.
func (v Value) MarshalBinary() ([]byte, error) {
	return v.appendBinary(nil)
}

func (v Value) appendBinary(b []byte) ([]byte, error) {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindNil:
	case KindBool, KindInt:
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], uint64(v.i))
		b = append(b, tmp[:]...)
	case KindFloat:
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], v.fbits())
		b = append(b, tmp[:]...)
	case KindString, KindAddr:
		var tmp [4]byte
		binary.BigEndian.PutUint32(tmp[:], uint32(len(v.s)))
		b = append(b, tmp[:]...)
		b = append(b, v.s...)
	case KindList:
		var tmp [4]byte
		l := v.lst()
		binary.BigEndian.PutUint32(tmp[:], uint32(len(l)))
		b = append(b, tmp[:]...)
		for _, e := range l {
			var err error
			b, err = e.appendBinary(b)
			if err != nil {
				return nil, err
			}
		}
	case KindAny:
		return nil, fmt.Errorf("overlog: opaque (any) values cannot cross the wire")
	default:
		return nil, fmt.Errorf("overlog: cannot marshal kind %v", v.kind)
	}
	return b, nil
}

// GobEncode implements gob.GobEncoder (gob does not consult
// BinaryMarshaler directly).
func (v Value) GobEncode() ([]byte, error) { return v.MarshalBinary() }

// GobDecode implements gob.GobDecoder.
func (v *Value) GobDecode(data []byte) error { return v.UnmarshalBinary(data) }

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (v *Value) UnmarshalBinary(data []byte) error {
	val, rest, err := decodeValue(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("overlog: %d trailing bytes after value", len(rest))
	}
	*v = val
	return nil
}

func decodeValue(b []byte) (Value, []byte, error) {
	if len(b) < 1 {
		return NilValue, nil, fmt.Errorf("overlog: truncated value")
	}
	kind := Kind(b[0])
	b = b[1:]
	switch kind {
	case KindNil:
		return NilValue, b, nil
	case KindBool, KindInt:
		if len(b) < 8 {
			return NilValue, nil, fmt.Errorf("overlog: truncated int")
		}
		i := int64(binary.BigEndian.Uint64(b[:8]))
		if kind == KindBool {
			return Bool(i != 0), b[8:], nil
		}
		return Int(i), b[8:], nil
	case KindFloat:
		if len(b) < 8 {
			return NilValue, nil, fmt.Errorf("overlog: truncated float")
		}
		return Float(math.Float64frombits(binary.BigEndian.Uint64(b[:8]))), b[8:], nil
	case KindString, KindAddr:
		if len(b) < 4 {
			return NilValue, nil, fmt.Errorf("overlog: truncated string header")
		}
		n := int(binary.BigEndian.Uint32(b[:4]))
		b = b[4:]
		if len(b) < n {
			return NilValue, nil, fmt.Errorf("overlog: truncated string body")
		}
		s := string(b[:n])
		if kind == KindAddr {
			return Addr(s), b[n:], nil
		}
		return Str(s), b[n:], nil
	case KindList:
		if len(b) < 4 {
			return NilValue, nil, fmt.Errorf("overlog: truncated list header")
		}
		n := int(binary.BigEndian.Uint32(b[:4]))
		b = b[4:]
		// Every element takes at least its kind byte.
		if len(b) < n {
			return NilValue, nil, fmt.Errorf("overlog: truncated list body")
		}
		elems := make([]Value, n)
		for i := 0; i < n; i++ {
			var err error
			elems[i], b, err = decodeValue(b)
			if err != nil {
				return NilValue, nil, err
			}
		}
		return List(elems...), b, nil
	}
	return NilValue, nil, fmt.Errorf("overlog: cannot unmarshal kind %d", kind)
}
