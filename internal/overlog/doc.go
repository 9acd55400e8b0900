// Package overlog — language reference.
//
// This file documents the Overlog dialect this runtime implements; the
// runtime architecture is described in value.go's package comment.
//
// # Programs
//
// A program is an optional header followed by declarations, facts, and
// rules, each terminated by a semicolon. Line comments use //, block
// comments /* */.
//
//	program boomfs_master;
//
// # Params
//
// A param is a named constant of one program, declared before its
// first use with a type (int, float, string or bool) and a default:
//
//	param repl: int = 3;
//	periodic fd_tick interval fd_ms;
//	rr1 repl_cmd(@S, C, T) :- fd_tick(_, _), chunk_repl(C, N, _), N < repl, ...;
//
// A reference is a bare lowercase identifier in an expression, or a
// periodic's interval. The parser replaces it with the constant, so a
// program's plans are those of the same text with the value written in
// place (inside a string, concatenate: "floor " + tostr(repl)).
// Runtime.InstallSource takes overrides by name; an override naming no
// param, of another type, or making an interval non-positive is an
// InstallError.
//
// # Tables and events
//
// Relations are declared with typed columns. Persistent tables may
// declare primary-key columns by index; inserting a tuple whose key
// matches an existing row replaces that row (update-in-place, as in
// P2/JOL). Without a keys clause, the whole row is the key (set
// semantics). Event relations hold tuples for a single timestep only.
// A persistent table marked durable survives a crash: Runtime.Snapshot
// writes exactly the durable tables, and a crash-restart carries them
// into the node's next incarnation (see Restart); every other table is
// soft state and starts empty. An event may not be durable.
//
//	table file(FileId: int, Parent: int, Name: string, IsDir: bool) keys(0) durable;
//	event request(Master: addr, ReqId: string, Op: string);
//
// A column declared max (`B: int max`) only grows: a write the stored row
// dominates or equals is a no-op, in any arrival order. It must be an int
// and the only non-key column of a keyed persistent table no delete rule names.
//
// Column types: int (int64), float, string, bool, addr (a node
// address — compares and hashes like string), list, and any (opaque Go
// values; not wire-marshalable).
//
// # Facts
//
// A ground atom loads a tuple at install time:
//
//	file(0, -1, "", true);
//
// # Rules
//
// A rule derives head tuples from a conjunctive body, evaluated left
// to right (the join order, as in P2). Variables are capitalized;
// `_` is the anonymous wildcard. An optional leading identifier names
// the rule (for profiling and trace attribution).
//
//	fq1 fqpath(P, C) :- file(C, F, N, _), fqpath(PP, F), C != 0,
//	                    P := ifelse(PP == "/", "/" + N, PP + "/" + N);
//
// Body elements:
//
//   - positive atoms: join against a relation; repeated variables
//     within an atom impose equality
//   - notin atom: stratified negation — all non-wildcard arguments
//     must be bound earlier
//   - conditions: any boolean expression over bound variables,
//     including zero-argument calls (now() - T > 500)
//   - assignments: Var := expr, binding a fresh variable once
//
// # Builtins
//
// Expressions call builtins by name; LookupBuiltin returns each one
// with a one-line Doc. Strings and conversions: concat, tostr, toint,
// tofloat, toaddr, strlen, substr, split, startswith, endswith,
// strjoin. Paths: dirname, basename, pathjoin. Numbers and logic:
// minv, maxv, ifelse, and, or, not, hash, hashmod. Lists: size(l),
// nth(l, i) (0-based), indexof(l, v) (the 0-based position of v, or -1
// when absent), member, lappend, lconcat, ltail, ldiff, lsort, pickk.
// The node and its clock: now, localaddr, nextid, unique, random.
//
// A setof aggregate (below) with nth and indexof pairs the i-th element
// of one sorted list with the i-th of another, as BOOM-MR's FIFO
// scheduler pairs free trackers with pending tasks:
//
//	cm1 cand_map(Tr, J, T) :- sched_tick(_, _), pending_maps("m", PL), free_maps("m", FL),
//	        tracker_live(Tr, Up), Up == true, I := indexof(FL, Tr), I >= 0, I < size(PL),
//	        K := nth(PL, I), J := K / 1000000, T := K % 1000000, task(J, T, "map", "pending");
//
// # Location specifiers
//
// Prefixing an argument with @ marks the tuple's location. A derived
// head whose location differs from the local node's address is shipped
// to that node (arriving as an external event on a later timestep)
// instead of being inserted locally. In body atoms, @X simply binds X
// to the location column.
//
//	resp(@Client, Id, Answer) :- req(@Me, Id, Client, Q), ...;
//
// # Aggregates
//
// Head positions may aggregate over the body's bindings, grouping by
// the remaining head columns: count<X> (or count<_>), sum<X>, avg<X>,
// min<X>, max<X>, and setof<X> (sorted list of distinct values).
// Aggregate rules read the complete fixpoint of their inputs
// (stratification) and are evaluated once per timestep, in the steps
// in which a body table gained or lost a row.
//
// A rule whose head is a local table is a maintained view: the rule
// remembers the row it stored for each group, replaces it when the
// group's value changes, and deletes it at the end of the step in which
// the group stops deriving (its input set became empty), so a count
// never outlives the rows it counted. Rules with a remote (@) or `next`
// head derive and forget; nothing is retracted.
//
// How much is recomputed follows from the rule's shape. A rule is
// maintained per group when its group columns are variables or
// constants (at least one variable), head and body tables are stored
// (not events), no expression reads now() or localaddr() or is impure,
// and some body table's atoms all mention every group variable: the
// rows a step inserted into or removed from such a table name the
// groups they touch, and only those groups are re-read, through index
// probes on the group variables. Every other rule, and any step that
// changes a table with an atom lacking a group variable, recomputes all
// groups. Runtime.Explain says which, and why. The results are the same
// either way, with one exception: if another rule deletes a view's row,
// a per-group view derives it again on the next step, a whole-rule view
// when an input next changes.
//
// A now() in an aggregate body is read only when the rule is evaluated,
// that is when an input table changes, and then for every group: the
// rule below drops a silent node the next time any node's row changes,
// not when its two seconds are up.
//
//	live(K, setof<N>) :- datanode(N, T), T >= now() - 2000;
//
// Rules that must notice the passage of time on their own join a
// periodic. The shipped rules write liveness as a keyed relation that
// heartbeats set and one periodic rule expires, and aggregate over the
// relation, which changes exactly when a node comes or goes:
//
//	dl1 dn_live(N, true) :- dn_alive(@M, N);
//	dx1 dn_live(N, false) :- fd_tick(_, _), datanode(N, T), T < now() - 2000;
//	ld1 live_dn("live", setof<N>) :- dn_live(N, true);
//
// # Deletion rules
//
// `delete head :- body` removes the derived tuples from storage at the
// end of the timestep. Deletions do not cascade into derived views
// (no re-derivation), and a delete rule imposes no stratification
// edges — a rule may delete from a table its own body negates.
//
//	rm4 delete file(F, P, N, D) :- req_rm_ok(_, _, F, _), file(F, P, N, D);
//
// # Deferred rules (Dedalus `next`)
//
// `next head :- body` applies the head at the *beginning of the next
// timestep*. This is the sanctioned idiom for read-modify-write state
// (counters, role flags) and for breaking update cycles temporally, as
// JOL did by deferring stored-table updates between fixpoints. Like
// delete rules, next rules impose no stratification edges.
//
//	ac3 next file_nchunks(F, N + 1) :- fs_addchunk(_, _, F, _, _), file_nchunks(F, N);
//
// # Periodics and watches
//
// `periodic name interval N;` declares an event source firing every N
// milliseconds, N an integer or an int param (tuples (Ord, Time) into
// the auto-declared event table `name`). `watch(table)` or
// `watch(table, "i")` streams that table's inserts ("i") and/or deletes
// ("d") to registered Go watchers.
//
// # Metaprogramming
//
// The installed program is itself data. Its catalog relations,
// declared in relations.go, hold the programs as rows: sys::rule(R, P,
// Prog, Name, Head, Mode, Agg, Line, Col), sys::atom(R, Pos, T, Kind,
// Line, Col), sys::occ, sys::decl(T, Prog, Event, Keyed, Set, Arity,
// Durable, Line, Col), sys::keyed, the //lint: pragmas as sys::feed,
// sys::export, sys::ordered and sys::ignore, and sys::timer,
// sys::watched and sys::fact. An unlabeled rule is named <prog>_r<i>,
// i its install index, so sys::rule joins sys::fire(Rule, Count,
// Evals) on Name. They are filled only when read: by a rule (decided
// at install) or through Runtime.Table.
//
//	meta rulecount(H, count<N>) :- sys::rule(_, _, _, N, H, _, _, _, _);
//	idle(N) :- sys::rule(_, _, _, N, _, _, _, _, _), sys::fire(N, 0, E), E > 100;
//
// Static analysis reads the same relations: package analysis renders a
// set of parsed programs with the same Model and evaluates boomlint's
// passes, themselves the Overlog program analysis/analysis.olg, over
// them on a runtime of their own. Each finding is a row of its finding
// relation, and SelfLint copies a node's own into sys::lint(Code,
// Severity, Program, Rule, Subject, Line, Msg).
//
// # Evaluation model
//
// Each node's timestep: drain external events (network arrivals, timer
// firings, API inserts, and the previous step's `next` heads) → run all
// rules to a stratified semi-naive fixpoint (delta-driven, with
// per-delta-position reordered join plans; a new tuple reaches the
// rules that scan its table and, where they name a constant, carry it —
// Runtime.Explain prints each rule's triggers) → apply deferred deletions →
// ship remote heads → clear event tables. Within a step, derivation is
// monotone except for primary-key replacement, whose last-writer wins;
// rules that must read-and-update the same state use `next`.
//
// Queries (Runtime.Query) evaluate an ad-hoc rule body against the
// stored state between steps without modifying anything.
package overlog
