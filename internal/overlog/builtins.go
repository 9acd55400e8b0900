package overlog

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// EvalEnv is the per-node context available to builtin functions during
// rule evaluation: the node's own address, the current timestep clock,
// a deterministic RNG, and a unique-id counter. It is satisfied by
// *Runtime.
type EvalEnv interface {
	LocalAddr() string
	NowMS() int64
	Rand() *rand.Rand
	NextID() int64
}

// Builtin is a pure-ish function callable from rule expressions.
type Builtin struct {
	Name    string
	MinArgs int
	MaxArgs int // -1 for variadic
	Fn      func(env EvalEnv, args []Value) (Value, error)
	Doc     string
	Ret     Kind // static return kind; KindNil when it depends on the arguments
	// Impure marks builtins whose value depends on mutable runtime state
	// (ID counters, the seeded RNG): each call is observable, so no plan
	// may cache, reorder or repeat one. Step-constant reads (now,
	// localaddr) stay pure.
	Impure bool
	// ReadsEnv marks pure builtins that read the EvalEnv (now,
	// localaddr): constant within a step, but not a function of the
	// arguments alone, so no index may be keyed by them.
	ReadsEnv bool
}

var builtins = map[string]*Builtin{}

func registerBuiltin(b *Builtin) {
	if _, dup := builtins[b.Name]; dup {
		panic("overlog: duplicate builtin " + b.Name)
	}
	builtins[b.Name] = b
}

// LookupBuiltin resolves a builtin by name.
func LookupBuiltin(name string) (*Builtin, bool) {
	b, ok := builtins[name]
	return b, ok
}

// BuiltinNames returns the registered builtin names, sorted (for
// docs/tests).
func BuiltinNames() []string {
	out := make([]string, 0, len(builtins))
	for n := range builtins {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func argErr(name string, want string, got Value) error {
	return fmt.Errorf("overlog: %s: want %s argument, got %s", name, want, got.Kind())
}

func init() {
	registerBuiltin(&Builtin{Name: "concat", MinArgs: 1, MaxArgs: -1,
		Doc: "concat(a, b, ...) string-concatenates its arguments",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			var b strings.Builder
			for _, a := range args {
				b.WriteString(valueToString(a))
			}
			return Str(b.String()), nil
		}})
	registerBuiltin(&Builtin{Name: "tostr", MinArgs: 1, MaxArgs: 1,
		Doc: "tostr(v) renders any value as a string",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			return Str(valueToString(args[0])), nil
		}})
	registerBuiltin(&Builtin{Name: "toint", MinArgs: 1, MaxArgs: 1,
		Doc: "toint(v) converts numerics and decimal strings to int",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			v := args[0]
			switch v.Kind() {
			case KindInt:
				return v, nil
			case KindFloat:
				return Int(v.AsInt()), nil
			case KindBool:
				if v.AsBool() {
					return Int(1), nil
				}
				return Int(0), nil
			case KindString, KindAddr:
				i, err := strconv.ParseInt(strings.TrimSpace(v.AsString()), 10, 64)
				if err != nil {
					return NilValue, fmt.Errorf("overlog: toint: %q is not an integer", v.AsString())
				}
				return Int(i), nil
			}
			return NilValue, argErr("toint", "numeric or string", v)
		}})
	registerBuiltin(&Builtin{Name: "tofloat", MinArgs: 1, MaxArgs: 1,
		Doc: "tofloat(v) converts numerics and decimal strings to float",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			v := args[0]
			switch v.Kind() {
			case KindFloat:
				return v, nil
			case KindInt:
				return Float(v.AsFloat()), nil
			case KindString, KindAddr:
				f, err := strconv.ParseFloat(strings.TrimSpace(v.AsString()), 64)
				if err != nil {
					return NilValue, fmt.Errorf("overlog: tofloat: %q is not a number", v.AsString())
				}
				return Float(f), nil
			}
			return NilValue, argErr("tofloat", "numeric or string", v)
		}})
	registerBuiltin(&Builtin{Name: "toaddr", MinArgs: 1, MaxArgs: 1,
		Doc: "toaddr(s) converts a string to an address value",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			v := args[0]
			if v.Kind() != KindString && v.Kind() != KindAddr {
				return NilValue, argErr("toaddr", "string", v)
			}
			return Addr(v.AsString()), nil
		}})
	registerBuiltin(&Builtin{Name: "strlen", MinArgs: 1, MaxArgs: 1,
		Doc: "strlen(s) returns the byte length of a string",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			if args[0].Kind() != KindString && args[0].Kind() != KindAddr {
				return NilValue, argErr("strlen", "string", args[0])
			}
			return Int(int64(len(args[0].AsString()))), nil
		}})
	registerBuiltin(&Builtin{Name: "substr", MinArgs: 2, MaxArgs: 3,
		Doc: "substr(s, start[, end]) slices a string by byte offsets",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			s := args[0].AsString()
			start := int(args[1].AsInt())
			end := len(s)
			if len(args) == 3 {
				end = int(args[2].AsInt())
			}
			if start < 0 {
				start = 0
			}
			if end > len(s) {
				end = len(s)
			}
			if start > end {
				start = end
			}
			return Str(s[start:end]), nil
		}})
	registerBuiltin(&Builtin{Name: "split", MinArgs: 2, MaxArgs: 2,
		Doc: "split(s, sep) splits a string into a list of strings",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			parts := strings.Split(args[0].AsString(), args[1].AsString())
			vals := make([]Value, len(parts))
			for i, p := range parts {
				vals[i] = Str(p)
			}
			return List(vals...), nil
		}})
	registerBuiltin(&Builtin{Name: "startswith", MinArgs: 2, MaxArgs: 2,
		Doc: "startswith(s, prefix) reports whether s begins with prefix",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			return Bool(strings.HasPrefix(args[0].AsString(), args[1].AsString())), nil
		}})
	registerBuiltin(&Builtin{Name: "endswith", MinArgs: 2, MaxArgs: 2,
		Doc: "endswith(s, suffix) reports whether s ends with suffix",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			return Bool(strings.HasSuffix(args[0].AsString(), args[1].AsString())), nil
		}})
	registerBuiltin(&Builtin{Name: "dirname", MinArgs: 1, MaxArgs: 1,
		Doc: "dirname(path) returns the parent of a slash-separated path",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			return Str(slashDirname(args[0].AsString())), nil
		}})
	registerBuiltin(&Builtin{Name: "basename", MinArgs: 1, MaxArgs: 1,
		Doc: "basename(path) returns the last component of a path",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			return Str(slashBasename(args[0].AsString())), nil
		}})
	registerBuiltin(&Builtin{Name: "pathjoin", MinArgs: 2, MaxArgs: -1,
		Doc: "pathjoin(a, b, ...) joins path components with single slashes",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			parts := make([]string, 0, len(args))
			for _, a := range args {
				parts = append(parts, a.AsString())
			}
			return Str(slashJoin(parts)), nil
		}})
	registerBuiltin(&Builtin{Name: "hash", MinArgs: 1, MaxArgs: 1,
		Doc: "hash(v) returns a non-negative 63-bit FNV hash of the value",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			return Int(hashValue(args[0])), nil
		}})
	registerBuiltin(&Builtin{Name: "hashmod", MinArgs: 2, MaxArgs: 2,
		Doc: "hashmod(v, n) buckets a value into [0, n)",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			n := args[1].AsInt()
			if n <= 0 {
				return NilValue, fmt.Errorf("overlog: hashmod: modulus must be positive, got %d", n)
			}
			return Int(hashValue(args[0]) % n), nil
		}})
	registerBuiltin(&Builtin{Name: "size", MinArgs: 1, MaxArgs: 1,
		Doc: "size(l) returns the length of a list",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			if args[0].Kind() != KindList {
				return NilValue, argErr("size", "list", args[0])
			}
			return Int(int64(len(args[0].AsList()))), nil
		}})
	registerBuiltin(&Builtin{Name: "nth", MinArgs: 2, MaxArgs: 2,
		Doc: "nth(l, i) returns the i-th (0-based) list element",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			if args[0].Kind() != KindList {
				return NilValue, argErr("nth", "list", args[0])
			}
			l := args[0].AsList()
			i := args[1].AsInt()
			if i < 0 || i >= int64(len(l)) {
				return NilValue, fmt.Errorf("overlog: nth: index %d out of range (list size %d)", i, len(l))
			}
			return l[i], nil
		}})
	registerBuiltin(&Builtin{Name: "indexof", MinArgs: 2, MaxArgs: 2,
		Doc: "indexof(l, v) returns the 0-based position of v in list l, or -1",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			if args[0].Kind() != KindList {
				return NilValue, argErr("indexof", "list", args[0])
			}
			for i, e := range args[0].AsList() {
				if e.Equal(args[1]) {
					return Int(int64(i)), nil
				}
			}
			return Int(-1), nil
		}})
	registerBuiltin(&Builtin{Name: "member", MinArgs: 2, MaxArgs: 2,
		Doc: "member(l, v) reports whether v occurs in list l",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			if args[0].Kind() != KindList {
				return NilValue, argErr("member", "list", args[0])
			}
			for _, e := range args[0].AsList() {
				if e.Equal(args[1]) {
					return Bool(true), nil
				}
			}
			return Bool(false), nil
		}})
	registerBuiltin(&Builtin{Name: "lappend", MinArgs: 2, MaxArgs: 2,
		Doc: "lappend(l, v) returns l with v appended",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			if args[0].Kind() != KindList {
				return NilValue, argErr("lappend", "list", args[0])
			}
			src := args[0].AsList()
			out := make([]Value, len(src)+1)
			copy(out, src)
			out[len(src)] = args[1]
			return List(out...), nil
		}})
	registerBuiltin(&Builtin{Name: "lconcat", MinArgs: 2, MaxArgs: 2,
		Doc: "lconcat(a, b) concatenates two lists",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			if args[0].Kind() != KindList || args[1].Kind() != KindList {
				return NilValue, argErr("lconcat", "list", args[0])
			}
			a, b := args[0].AsList(), args[1].AsList()
			out := make([]Value, 0, len(a)+len(b))
			out = append(out, a...)
			out = append(out, b...)
			return List(out...), nil
		}})
	registerBuiltin(&Builtin{Name: "ltail", MinArgs: 1, MaxArgs: 1,
		Doc: "ltail(l) returns l without its first element",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			if args[0].Kind() != KindList {
				return NilValue, argErr("ltail", "list", args[0])
			}
			l := args[0].AsList()
			if len(l) == 0 {
				return List(), nil
			}
			return List(l[1:]...), nil
		}})
	registerBuiltin(&Builtin{Name: "ldiff", MinArgs: 2, MaxArgs: 2,
		Doc: "ldiff(a, b) returns the elements of list a not present in list b",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			if args[0].Kind() != KindList || args[1].Kind() != KindList {
				return NilValue, argErr("ldiff", "list", args[0])
			}
			excl := args[1].AsList()
			var out []Value
			for _, e := range args[0].AsList() {
				found := false
				for _, x := range excl {
					if e.Equal(x) {
						found = true
						break
					}
				}
				if !found {
					out = append(out, e)
				}
			}
			return List(out...), nil
		}})
	registerBuiltin(&Builtin{Name: "minv", MinArgs: 2, MaxArgs: -1,
		Doc: "minv(a, b, ...) returns the smallest argument",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			best := args[0]
			for _, a := range args[1:] {
				if a.Compare(best) < 0 {
					best = a
				}
			}
			return best, nil
		}})
	registerBuiltin(&Builtin{Name: "maxv", MinArgs: 2, MaxArgs: -1,
		Doc: "maxv(a, b, ...) returns the largest argument",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			best := args[0]
			for _, a := range args[1:] {
				if a.Compare(best) > 0 {
					best = a
				}
			}
			return best, nil
		}})
	registerBuiltin(&Builtin{Name: "now", ReadsEnv: true, MinArgs: 0, MaxArgs: 0,
		Doc: "now() returns the current timestep clock in milliseconds",
		Fn: func(env EvalEnv, _ []Value) (Value, error) {
			return Int(env.NowMS()), nil
		}})
	registerBuiltin(&Builtin{Name: "localaddr", ReadsEnv: true, MinArgs: 0, MaxArgs: 0,
		Doc: "localaddr() returns this node's address",
		Fn: func(env EvalEnv, _ []Value) (Value, error) {
			return Addr(env.LocalAddr()), nil
		}})
	registerBuiltin(&Builtin{Name: "unique", Impure: true, MinArgs: 0, MaxArgs: 0,
		Doc: "unique() returns a node-unique identifier string",
		Fn: func(env EvalEnv, _ []Value) (Value, error) {
			return Str(fmt.Sprintf("%s#%d", env.LocalAddr(), env.NextID())), nil
		}})
	registerBuiltin(&Builtin{Name: "nextid", Impure: true, MinArgs: 0, MaxArgs: 0,
		Doc: "nextid() returns a node-unique monotonically increasing int",
		Fn: func(env EvalEnv, _ []Value) (Value, error) {
			return Int(env.NextID()), nil
		}})
	registerBuiltin(&Builtin{Name: "pickk", MinArgs: 3, MaxArgs: 3,
		Doc: "pickk(l, k, seed) returns k distinct elements of list l chosen pseudo-randomly but deterministically from seed",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			if args[0].Kind() != KindList {
				return NilValue, argErr("pickk", "list", args[0])
			}
			src := args[0].AsList()
			k := int(args[1].AsInt())
			if k < 0 {
				k = 0
			}
			if k > len(src) {
				k = len(src)
			}
			out := append([]Value(nil), src...)
			r := rand.New(rand.NewSource(args[2].AsInt()))
			for i := 0; i < k; i++ {
				j := i + r.Intn(len(out)-i)
				out[i], out[j] = out[j], out[i]
			}
			return List(out[:k]...), nil
		}})
	registerBuiltin(&Builtin{Name: "strjoin", MinArgs: 2, MaxArgs: 2,
		Doc: "strjoin(l, sep) joins list elements into a string",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			if args[0].Kind() != KindList {
				return NilValue, argErr("strjoin", "list", args[0])
			}
			parts := make([]string, len(args[0].AsList()))
			for i, e := range args[0].AsList() {
				parts[i] = valueToString(e)
			}
			return Str(strings.Join(parts, args[1].AsString())), nil
		}})
	registerBuiltin(&Builtin{Name: "lsort", MinArgs: 1, MaxArgs: 1,
		Doc: "lsort(l) returns the list sorted ascending",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			if args[0].Kind() != KindList {
				return NilValue, argErr("lsort", "list", args[0])
			}
			out := append([]Value(nil), args[0].AsList()...)
			sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
			return List(out...), nil
		}})
	registerBuiltin(&Builtin{Name: "random", Impure: true, MinArgs: 1, MaxArgs: 1,
		Doc: "random(n) returns a deterministic pseudo-random int in [0, n)",
		Fn: func(env EvalEnv, args []Value) (Value, error) {
			n := args[0].AsInt()
			if n <= 0 {
				return NilValue, fmt.Errorf("overlog: random: bound must be positive, got %d", n)
			}
			return Int(env.Rand().Int63n(n)), nil
		}})
	registerBuiltin(&Builtin{Name: "ifelse", MinArgs: 3, MaxArgs: 3,
		Doc: "ifelse(cond, a, b) returns a when cond is true, else b",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			if args[0].Kind() != KindBool {
				return NilValue, argErr("ifelse", "bool", args[0])
			}
			if args[0].AsBool() {
				return args[1], nil
			}
			return args[2], nil
		}})
	registerBuiltin(&Builtin{Name: "and", MinArgs: 2, MaxArgs: -1,
		Doc: "and(a, b, ...) is boolean conjunction",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			for _, a := range args {
				if a.Kind() != KindBool {
					return NilValue, argErr("and", "bool", a)
				}
				if !a.AsBool() {
					return Bool(false), nil
				}
			}
			return Bool(true), nil
		}})
	registerBuiltin(&Builtin{Name: "or", MinArgs: 2, MaxArgs: -1,
		Doc: "or(a, b, ...) is boolean disjunction",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			for _, a := range args {
				if a.Kind() != KindBool {
					return NilValue, argErr("or", "bool", a)
				}
				if a.AsBool() {
					return Bool(true), nil
				}
			}
			return Bool(false), nil
		}})
	registerBuiltin(&Builtin{Name: "not", MinArgs: 1, MaxArgs: 1,
		Doc: "not(a) is boolean negation",
		Fn: func(_ EvalEnv, args []Value) (Value, error) {
			if args[0].Kind() != KindBool {
				return NilValue, argErr("not", "bool", args[0])
			}
			return Bool(!args[0].AsBool()), nil
		}})
}

// builtinRets declares the static return kind of each builtin for type
// inference (internal/overlog/analysis). Builtins absent here (nth,
// minv, maxv, ifelse) return whatever kind their arguments carry.
func init() {
	rets := map[string]Kind{
		"concat": KindString, "tostr": KindString, "substr": KindString,
		"dirname": KindString, "basename": KindString, "pathjoin": KindString,
		"strjoin": KindString, "unique": KindString,
		"toint": KindInt, "strlen": KindInt, "hash": KindInt, "hashmod": KindInt,
		"size": KindInt, "indexof": KindInt, "now": KindInt, "nextid": KindInt, "random": KindInt,
		"tofloat": KindFloat,
		"toaddr":  KindAddr, "localaddr": KindAddr,
		"startswith": KindBool, "endswith": KindBool, "member": KindBool,
		"and": KindBool, "or": KindBool, "not": KindBool,
		"split": KindList, "lappend": KindList, "lconcat": KindList,
		"ltail": KindList, "ldiff": KindList, "pickk": KindList, "lsort": KindList,
	}
	for n, k := range rets {
		b, ok := builtins[n]
		if !ok {
			panic("overlog: return kind declared for unknown builtin " + n)
		}
		b.Ret = k
	}
}

// valueToString renders a value for string concatenation: strings and
// addrs are unquoted, other kinds use literal syntax.
func valueToString(v Value) string {
	switch v.Kind() {
	case KindString, KindAddr:
		return v.AsString()
	default:
		return v.String()
	}
}

// hashValue computes a 63-bit FNV-1a hash of the canonical encoding.
func hashValue(v Value) int64 {
	b := v.encode(nil)
	var h uint64 = 14695981039346656037
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return int64(h & 0x7fffffffffffffff)
}

// --- slash path helpers (BOOM-FS paths are always /-separated) ---

func slashDirname(p string) string {
	p = strings.TrimRight(p, "/")
	if p == "" {
		return "/"
	}
	i := strings.LastIndexByte(p, '/')
	if i < 0 {
		return "."
	}
	if i == 0 {
		return "/"
	}
	return p[:i]
}

func slashBasename(p string) string {
	p = strings.TrimRight(p, "/")
	if p == "" {
		return "/"
	}
	i := strings.LastIndexByte(p, '/')
	return p[i+1:]
}

func slashJoin(parts []string) string {
	out := ""
	for _, p := range parts {
		if p == "" {
			continue
		}
		if out == "" {
			out = p
			continue
		}
		out = strings.TrimRight(out, "/") + "/" + strings.TrimLeft(p, "/")
	}
	if out == "" {
		return "/"
	}
	return out
}
