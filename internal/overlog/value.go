// Package overlog implements a self-contained runtime for the Overlog
// declarative language in the style of P2 and JOL, the Java Overlog
// Library that the BOOM Analytics system (EuroSys 2010) was built on.
//
// A Program is a set of table declarations and rules. A Runtime owns the
// stored state for one logical node and evaluates all rules to fixpoint
// once per timestep, in the Dedalus-lite operational model: external
// events (network arrivals, timer ticks, API insertions) are drained
// into event tables, rules run to a semi-naive fixpoint with stratified
// negation and aggregation, deferred deletions are applied, tuples whose
// location specifier names another node are shipped, and event tables
// are cleared.
//
// The Runtime is deliberately passive: it never spawns goroutines and
// never reads the wall clock. Drivers (a discrete-event simulator for
// tests and benchmarks, or a real-time loop over TCP for deployment)
// own scheduling and feed the Runtime explicit timestamps.
package overlog

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind enumerates the runtime types an Overlog value may take.
type Kind uint8

// Value kinds. KindAny holds an opaque Go value (used for payloads such
// as chunk bytes or map/reduce function handles); two KindAny values
// compare equal only if they are the identical interface value. Their
// ordering and storage keying are deterministic — stable dynamic type
// name first, then a per-type comparator/keyer (see RegisterAnyType) —
// so replay is bit-identical across processes.
const (
	KindNil Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindAddr
	KindList
	KindAny
)

func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindAddr:
		return "addr"
	case KindList:
		return "list"
	case KindAny:
		return "any"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindByName resolves a type name used in table declarations.
func KindByName(name string) (Kind, bool) {
	switch name {
	case "int":
		return KindInt, true
	case "float":
		return KindFloat, true
	case "string":
		return KindString, true
	case "bool":
		return KindBool, true
	case "addr":
		return KindAddr, true
	case "list":
		return KindList, true
	case "any":
		return KindAny, true
	}
	return KindNil, false
}

// Value is a dynamically typed Overlog value.
//
// The layout is deliberately four words (48 bytes): values are copied
// by value throughout the evaluator — into environments, head
// buffers, stored tuples, hash streams — so every extra field is paid
// on all of those copies. Floats ride in the integer word as their
// IEEE-754 bit pattern (fval/fbits), and list payloads share the
// opaque interface slot (lst); both kinds dispatch on kind first, so
// the unions are unambiguous.
type Value struct {
	kind Kind
	i    int64       // bool/int payload; float bit pattern for KindFloat
	s    string      // string/addr payload
	any  interface{} // opaque payload for KindAny; []Value for KindList
}

// fval decodes the float payload stored in the integer word.
func (v Value) fval() float64 { return math.Float64frombits(uint64(v.i)) }

// fbits returns the float payload's IEEE-754 bit pattern.
func (v Value) fbits() uint64 { return uint64(v.i) }

// lst returns the list payload (nil for non-lists).
func (v Value) lst() []Value {
	l, _ := v.any.([]Value)
	return l
}

// NilValue is the distinguished null value.
var NilValue = Value{kind: KindNil}

// Bool wraps a Go bool.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Int wraps an int64.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float wraps a float64.
func Float(v float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(v))} }

// Str wraps a string.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Addr wraps a node address (a location value).
func Addr(s string) Value { return Value{kind: KindAddr, s: s} }

// List wraps a slice of values. The slice is not copied.
func List(vals ...Value) Value { return Value{kind: KindList, any: vals} }

// Any wraps an opaque Go value.
func Any(v interface{}) Value { return Value{kind: KindAny, any: v} }

// Kind reports the value's runtime kind.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether the value is the null value.
func (v Value) IsNil() bool { return v.kind == KindNil }

// AsBool returns the boolean payload (false for non-bools).
func (v Value) AsBool() bool { return v.kind == KindBool && v.i != 0 }

// AsInt returns the integer payload, coercing floats.
func (v Value) AsInt() int64 {
	if v.kind == KindFloat {
		return int64(v.fval())
	}
	return v.i
}

// AsFloat returns the float payload, coercing ints.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	if v.kind == KindFloat {
		return v.fval()
	}
	return 0
}

// AsString returns the string payload for strings and addrs.
func (v Value) AsString() string { return v.s }

// AsList returns the list payload (nil for non-lists).
func (v Value) AsList() []Value {
	if v.kind != KindList {
		return nil
	}
	return v.lst()
}

// AsAny returns the opaque payload.
func (v Value) AsAny() interface{} {
	if v.kind != KindAny {
		return nil
	}
	return v.any
}

// Equal reports deep equality. Numeric values compare across int/float.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		if isNumeric(v.kind) && isNumeric(o.kind) {
			return v.AsFloat() == o.AsFloat()
		}
		// Addresses are strings with routing intent; they compare equal.
		if isStringy(v.kind) && isStringy(o.kind) {
			return v.s == o.s
		}
		return false
	}
	switch v.kind {
	case KindNil:
		return true
	case KindBool, KindInt:
		return v.i == o.i
	case KindFloat:
		return v.fval() == o.fval()
	case KindString, KindAddr:
		return v.s == o.s
	case KindList:
		vl, ol := v.lst(), o.lst()
		if len(vl) != len(ol) {
			return false
		}
		for i := range vl {
			if !vl[i].Equal(ol[i]) {
				return false
			}
		}
		return true
	case KindAny:
		if !anyComparable(v.any) || !anyComparable(o.any) {
			// Uncomparable dynamic types (slices, maps, funcs) would make
			// == panic; fall back to deterministic key identity.
			return anyTypeName(v.any) == anyTypeName(o.any) && anyKey(v.any) == anyKey(o.any)
		}
		return v.any == o.any
	}
	return false
}

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat }

func isStringy(k Kind) bool { return k == KindString || k == KindAddr }

// Compare orders two values: nil < bool < numeric < string/addr < list < any.
// Within numerics, comparison is by magnitude across int and float.
// Returns -1, 0, or +1.
func (v Value) Compare(o Value) int {
	vr, or := compareRank(v.kind), compareRank(o.kind)
	if vr != or {
		if vr < or {
			return -1
		}
		return 1
	}
	switch {
	case v.kind == KindNil:
		return 0
	case v.kind == KindBool:
		return cmpInt64(v.i, o.i)
	case isNumeric(v.kind):
		a, b := v.AsFloat(), o.AsFloat()
		if v.kind == KindInt && o.kind == KindInt {
			return cmpInt64(v.i, o.i)
		}
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case v.kind == KindString || v.kind == KindAddr:
		return strings.Compare(v.s, o.s)
	case v.kind == KindList:
		vl, ol := v.lst(), o.lst()
		n := len(vl)
		if len(ol) < n {
			n = len(ol)
		}
		for i := 0; i < n; i++ {
			if c := vl[i].Compare(ol[i]); c != 0 {
				return c
			}
		}
		return cmpInt64(int64(len(vl)), int64(len(ol)))
	default:
		// Opaque values order by stable dynamic type name, then by the
		// registered comparator (or deterministic key) within a type.
		// Never by pointer identity: addresses differ across processes
		// and would break replay determinism.
		if c := strings.Compare(anyTypeName(v.any), anyTypeName(o.any)); c != 0 {
			return c
		}
		if h, ok := lookupAnyHandler(v.any); ok && h.cmp != nil {
			return h.cmp(v.any, o.any)
		}
		return strings.Compare(anyKey(v.any), anyKey(o.any))
	}
}

// --- opaque (KindAny) determinism support ---

// anyHandler carries the registered keying/ordering hooks for one
// concrete Go type stored behind KindAny.
type anyHandler struct {
	key func(interface{}) string
	cmp func(a, b interface{}) int
}

var (
	anyRegMu sync.RWMutex
	anyReg   = map[reflect.Type]anyHandler{}
)

// RegisterAnyType installs deterministic keying and ordering for opaque
// values whose dynamic type matches sample's. key must return a string
// that identifies the value's logical identity (it feeds tuple hashing
// and set semantics); cmp, when non-nil, totally orders two values of
// the type. Types that are plain data need no registration — the
// default %v rendering is already stable — but types holding pointers
// or other process-local identity should register so replay stays
// bit-identical across processes. Typically called from init.
func RegisterAnyType(sample interface{}, key func(interface{}) string, cmp func(a, b interface{}) int) {
	if sample == nil || key == nil {
		panic("overlog: RegisterAnyType requires a sample value and key function")
	}
	anyRegMu.Lock()
	anyReg[reflect.TypeOf(sample)] = anyHandler{key: key, cmp: cmp}
	anyRegMu.Unlock()
}

func lookupAnyHandler(v interface{}) (anyHandler, bool) {
	if v == nil {
		return anyHandler{}, false
	}
	anyRegMu.RLock()
	h, ok := anyReg[reflect.TypeOf(v)]
	anyRegMu.RUnlock()
	return h, ok
}

// anyTypeName names the dynamic type of an opaque value; stable across
// processes, unlike a pointer rendering.
func anyTypeName(v interface{}) string {
	if v == nil {
		return "<nil>"
	}
	return reflect.TypeOf(v).String()
}

// anyKey renders an opaque value's identity for hashing/keying: the
// registered key function when present, else the %v rendering (stable
// for value-like payloads; pointer-bearing types should register).
func anyKey(v interface{}) string {
	if h, ok := lookupAnyHandler(v); ok {
		return h.key(v)
	}
	return fmt.Sprintf("%v", v)
}

func anyComparable(v interface{}) bool {
	if v == nil {
		return true
	}
	return reflect.TypeOf(v).Comparable()
}

func compareRank(k Kind) int {
	switch k {
	case KindNil:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString, KindAddr:
		return 3
	case KindList:
		return 4
	default:
		return 5
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// encode appends a canonical byte encoding of v, used to build hash-map
// keys for tuple identity and primary keys.
func (v Value) encode(b []byte) []byte {
	// Addr and string compare equal, so they must encode identically.
	k := v.kind
	if k == KindAddr {
		k = KindString
	}
	b = append(b, byte(k))
	switch v.kind {
	case KindBool, KindInt:
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(v.i))
		b = append(b, tmp[:]...)
	case KindFloat:
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], v.fbits())
		b = append(b, tmp[:]...)
	case KindString, KindAddr:
		var tmp [4]byte
		binary.LittleEndian.PutUint32(tmp[:], uint32(len(v.s)))
		b = append(b, tmp[:]...)
		b = append(b, v.s...)
	case KindList:
		l := v.lst()
		var tmp [4]byte
		binary.LittleEndian.PutUint32(tmp[:], uint32(len(l)))
		b = append(b, tmp[:]...)
		for _, e := range l {
			b = e.encode(b)
		}
	case KindAny:
		b = append(b, anyTypeName(v.any)...)
		b = append(b, '/')
		b = append(b, anyKey(v.any)...)
	}
	return b
}

// --- hashing and encoding-equivalent equality ---
//
// The storage layer keys tuples by a 64-bit FNV-1a fingerprint of the
// same byte stream encode produces, computed without materializing it.
// Collisions are survivable: fingerprint buckets chain rows and every
// probe re-checks with keyEqual, which mirrors encode's equality
// exactly (addr folds into string, int and float stay distinct, floats
// compare by bit pattern).

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v))
		v >>= 8
	}
	return h
}

func fnvUint32(h uint64, v uint32) uint64 {
	for i := 0; i < 4; i++ {
		h = fnvByte(h, byte(v))
		v >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// hash folds v into a running FNV-1a state, consuming byte-for-byte
// what encode would append (so the injectivity properties the encoding
// tests establish carry over to fingerprints, modulo 64-bit collisions
// handled by bucket chains).
func (v Value) hash(h uint64) uint64 {
	k := v.kind
	if k == KindAddr {
		k = KindString
	}
	h = fnvByte(h, byte(k))
	switch v.kind {
	case KindBool, KindInt:
		h = fnvUint64(h, uint64(v.i))
	case KindFloat:
		h = fnvUint64(h, v.fbits())
	case KindString, KindAddr:
		h = fnvUint32(h, uint32(len(v.s)))
		h = fnvString(h, v.s)
	case KindList:
		l := v.lst()
		h = fnvUint32(h, uint32(len(l)))
		for _, e := range l {
			h = e.hash(h)
		}
	case KindAny:
		h = fnvString(h, anyTypeName(v.any))
		h = fnvByte(h, '/')
		h = fnvString(h, anyKey(v.any))
	}
	return h
}

// keyEqual reports equality under the canonical encoding: true iff
// encode(v) == encode(o) byte-for-byte. It is stricter than Equal for
// cross-kind numerics (Int(3) != Float(3.0) as keys) and bitwise for
// floats, matching the string-keyed storage this replaces.
func (v Value) keyEqual(o Value) bool {
	vk, ok := v.kind, o.kind
	if vk == KindAddr {
		vk = KindString
	}
	if ok == KindAddr {
		ok = KindString
	}
	if vk != ok {
		return false
	}
	switch v.kind {
	case KindNil:
		return true
	case KindBool, KindInt:
		return v.i == o.i
	case KindFloat:
		return v.i == o.i
	case KindString, KindAddr:
		return v.s == o.s
	case KindList:
		vl, ol := v.lst(), o.lst()
		if len(vl) != len(ol) {
			return false
		}
		for i := range vl {
			if !vl[i].keyEqual(ol[i]) {
				return false
			}
		}
		return true
	case KindAny:
		return anyTypeName(v.any) == anyTypeName(o.any) && anyKey(v.any) == anyKey(o.any)
	}
	return false
}

// String renders the value in Overlog literal syntax.
func (v Value) String() string {
	switch v.kind {
	case KindNil:
		return "nil"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.fval(), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindAddr:
		return "@" + v.s
	case KindList:
		l := v.lst()
		parts := make([]string, len(l))
		for i, e := range l {
			parts[i] = e.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KindAny:
		return fmt.Sprintf("any(%T)", v.any)
	}
	return "?"
}

// Tuple is a row of values belonging to a named table.
type Tuple struct {
	Table string
	Vals  []Value
}

// NewTuple builds a tuple for the named table.
func NewTuple(table string, vals ...Value) Tuple {
	return Tuple{Table: table, Vals: vals}
}

// Clone returns a copy whose Vals slice shares nothing with t. Callers
// that retain a tuple past the call that produced it (storing it in a
// struct field, a queue, or a table) must retain a clone: the evaluator
// reuses its scratch tuples between derivations.
func (t Tuple) Clone() Tuple {
	vals := make([]Value, len(t.Vals))
	copy(vals, t.Vals)
	return Tuple{Table: t.Table, Vals: vals}
}

// hashCols fingerprints the column subset: the FNV-1a hash of the
// columns' encodings, without building them.
//
//boomvet:noalloc
func (t Tuple) hashCols(cols []int) uint64 {
	h := fnvOffset64
	for _, c := range cols {
		h = t.Vals[c].hash(h)
	}
	return h
}

// keyEqualCols reports encoding-equality with o on the given columns.
//
//boomvet:noalloc
func (t Tuple) keyEqualCols(o Tuple, cols []int) bool {
	for _, c := range cols {
		if !t.Vals[c].keyEqual(o.Vals[c]) {
			return false
		}
	}
	return true
}

// hashVals fingerprints a probe-value slice (column order implied).
//
//boomvet:noalloc
func hashVals(vals []Value) uint64 {
	h := fnvOffset64
	for _, v := range vals {
		h = v.hash(h)
	}
	return h
}

// Identity encodes all columns as a map key.
func (t Tuple) Identity() string {
	b := make([]byte, 0, 16*len(t.Vals))
	for _, v := range t.Vals {
		b = v.encode(b)
	}
	return string(b)
}

// Equal reports whether two tuples have the same table and values.
func (t Tuple) Equal(o Tuple) bool {
	if t.Table != o.Table || len(t.Vals) != len(o.Vals) {
		return false
	}
	for i := range t.Vals {
		if !t.Vals[i].Equal(o.Vals[i]) {
			return false
		}
	}
	return true
}

// String renders the tuple as "table(v1, v2, ...)".
func (t Tuple) String() string {
	parts := make([]string, len(t.Vals))
	for i, v := range t.Vals {
		parts[i] = v.String()
	}
	return t.Table + "(" + strings.Join(parts, ", ") + ")"
}

// SortTuples orders tuples deterministically (by table, then columns);
// used by tests and watch sinks for stable output.
func SortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Table != ts[j].Table {
			return ts[i].Table < ts[j].Table
		}
		a, b := ts[i].Vals, ts[j].Vals
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		for k := 0; k < n; k++ {
			if c := a[k].Compare(b[k]); c != 0 {
				return c < 0
			}
		}
		return len(a) < len(b)
	})
}
