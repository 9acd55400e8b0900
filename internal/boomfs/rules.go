// Package boomfs implements BOOM-FS: the HDFS-workalike distributed
// file system from "BOOM Analytics" (EuroSys 2010) whose master
// (NameNode) metadata logic is written in Overlog rules rather than
// imperative code. The data plane — chunk bytes on datanodes and the
// client write pipeline — is imperative Go glue, exactly the
// declarative/imperative split the paper used (Overlog for protocol and
// metadata, Java for byte-shovelling).
//
// The system comprises:
//
//   - a master whose entire metadata catalog (files, paths, chunks,
//     datanode inventory, placement, re-replication) is Overlog
//     (MasterRules below; there is no Go logic on the master at all);
//   - datanodes that heartbeat chunk inventories to the master via
//     Overlog rules and store chunk bytes in a Go chunk store;
//   - a client library providing the familiar FS API on top of the
//     request/response tuple protocol.
package boomfs

import (
	"fmt"
	"strings"

	"repro/internal/membership"
	"repro/internal/overlog/analysis"
	"repro/internal/paxos"
)

// expand substitutes {{KEY}} placeholders in rule text.
func expand(src string, vars map[string]string) string {
	for k, v := range vars {
		src = strings.ReplaceAll(src, "{{"+k+"}}", v)
	}
	return src
}

// ProtocolDecls declares the tuple protocol shared by masters, clients
// and datanodes. Every node installs these declarations so envelopes
// can be decoded into identical schemas on both ends.
const ProtocolDecls = `
	// Boundary facts for boomlint: the client library injects requests
	// and chunk I/O, the datanode's chunk-store service injects acks and
	// consumes the master's commands (see client.go, datanode.go).
	//lint:feed request dn_write dn_read dn_write_ack dn_read_resp dn_replicate
	//lint:export repl_cmd gc_cmd dn_write dn_read dn_replicate

	// Client <-> master metadata protocol. Op is one of: exists, ls,
	// mkdir, create, rm, mv, addchunk, chunks, chunklocs. Path is the
	// primary operand; Arg carries mv's destination or chunklocs' id.
	event request(Master: addr, ReqId: string, Src: addr, Op: string, Path: string, Arg: string);
	event response(Client: addr, ReqId: string, Ok: bool, Result: list, Err: string);

	// Datanode -> master control traffic.
	event dn_alive(Master: addr, Node: addr);
	event dn_chunk(Master: addr, Node: addr, ChunkId: int, Bytes: int);

	// Master -> datanode re-replication and garbage-collection commands.
	event repl_cmd(Node: addr, ChunkId: int, Target: addr);
	event gc_cmd(Node: addr, ChunkId: int);

	// Client/datanode data plane: pipelined chunk writes, reads, and
	// datanode-to-datanode replication copies.
	event dn_write(Node: addr, ReqId: string, Client: addr, ChunkId: int, Data: string, Rest: list);
	event dn_write_ack(Client: addr, ReqId: string, ChunkId: int, Node: addr);
	event dn_read(Node: addr, ReqId: string, Client: addr, ChunkId: int);
	event dn_read_resp(Client: addr, ReqId: string, ChunkId: int, Data: string, Ok: bool);
	event dn_replicate(Node: addr, ChunkId: int, Data: string);
`

// MasterRules is the complete BOOM-FS master: the paper's file /
// fqpath / fchunk / datanode / hb_chunk catalog and every metadata
// operation, as Overlog. Placeholders: REPL (replication factor),
// DNTIMEOUT (datanode liveness window ms), FDTICK (failure-detector
// period ms).
const MasterRules = `
	program boomfs_master;

	// --- The metadata catalog (paper Table: "BOOM-FS relations") ---
	table file(FileId: int, ParentId: int, Name: string, IsDir: bool) keys(0);
	table fqpath(Path: string, FileId: int) keys(0);
	table fchunk(ChunkId: int, FileId: int, Idx: int) keys(0);
	table file_nchunks(FileId: int, N: int) keys(0);
	table datanode(Node: addr, LastHB: int) keys(0);
	table hb_chunk(Node: addr, ChunkId: int, Bytes: int) keys(0,1);

	// Root directory.
	file(0, -1, "", true);
	fqpath("/", 0);
	file_nchunks(0, 0);

	// Internal request-validation events.
	event fs_newfile(ReqId: string, Src: addr, FileId: int, Parent: int, Name: string, IsDir: bool);
	event req_pc(ReqId: string, Src: addr, Op: string, Path: string, Parent: int);
	event req_rm_ok(ReqId: string, Src: addr, FileId: int, Path: string);
	event req_mv_ok(ReqId: string, Src: addr, FileId: int, OldPath: string, NewParent: int, NewPath: string);
	event fs_addchunk(ReqId: string, Src: addr, FileId: int, ChunkId: int, Idx: int);
	event do_ls(ReqId: string, Src: addr, FileId: int);

	// --- Fully qualified paths: the paper's showpiece recursive view.
	// A file's path is its parent's path plus its own name; inserting a
	// file tuple materializes its path incrementally via semi-naive
	// evaluation.
	fq1 fqpath(P, C) :- file(C, F, N, _), fqpath(PP, F), C != 0,
	                    P := ifelse(PP == "/", "/" + N, PP + "/" + N);

	// --- Datanode liveness ---
	dn1 datanode(N, T) :- dn_alive(@M, N), T := now();
	dn2 hb_chunk(N, C, B) :- dn_chunk(@M, N, C, B);

	table live_dn(K: string, Nodes: list) keys(0);
	ld1 live_dn("live", setof<N>) :- datanode(N, T), T >= now() - {{DNTIMEOUT}};

	// Replica inventory per chunk, restricted to live datanodes.
	table chunk_repl(ChunkId: int, N: int, Nodes: list) keys(0);
	cr1 chunk_repl(C, count<N>, setof<N>) :- hb_chunk(N, C, _), datanode(N, T),
	                                          T >= now() - {{DNTIMEOUT}};

	// Placement hint recorded at allocation time, so reads work before
	// the first post-write heartbeat arrives.
	table chunk_loc_hint(ChunkId: int, Nodes: list) keys(0);

	// --- exists ---
	ex1 response(@Src, Id, true, [Fid], "") :-
	        request(@M, Id, Src, "exists", Path, _), fqpath(Path, Fid);
	ex2 response(@Src, Id, false, [], "not found") :-
	        request(@M, Id, Src, "exists", Path, _), notin fqpath(Path, _);

	// --- ls ---
	ls1 do_ls(Id, Src, Fid) :- request(@M, Id, Src, "ls", Path, _), fqpath(Path, Fid);
	ls2 response(@Src, Id, false, [], "not found") :-
	        request(@M, Id, Src, "ls", Path, _), notin fqpath(Path, _);
	ls3 response(@Src, Id, true, setof<N>, "") :- do_ls(Id, Src, Fid), file(_, Fid, N, _);
	ls4 response(@Src, Id, true, [], "") :- do_ls(Id, Src, Fid), notin file(_, Fid, _, _);

	// --- mkdir / create ---
	// req_pc fires when the parent directory exists and is a directory.
	pc1 req_pc(Id, Src, Op, Path, Par) :-
	        request(@M, Id, Src, Op, Path, _), fqpath(dirname(Path), Par),
	        file(Par, _, _, true);

	// Ids are hashes of the (globally unique) request id rather than a
	// local counter, so replicas of the replicated master allocate
	// identical ids when applying the same decided command.
	mk1 fs_newfile(Id, Src, hash(Id), Par, basename(Path), true) :-
	        req_pc(Id, Src, "mkdir", Path, Par), notin fqpath(Path, _), Path != "/";
	cr2 fs_newfile(Id, Src, hash(Id), Par, basename(Path), false) :-
	        req_pc(Id, Src, "create", Path, Par), notin fqpath(Path, _), Path != "/";

	// The catalog mutation is deferred (JOL applied stored-table updates
	// between fixpoints); this breaks the create-reads-fqpath /
	// create-writes-file cycle temporally.
	nf1 next file(Fid, Par, Name, D) :- fs_newfile(_, _, Fid, Par, Name, D);
	nf2 file_nchunks(Fid, 0) :- fs_newfile(_, _, Fid, _, _, _);
	nf3 response(@Src, Id, true, [Fid], "") :- fs_newfile(Id, Src, Fid, _, _, _);

	mk2 response(@Src, Id, false, [], "exists") :-
	        request(@M, Id, Src, Op, Path, _), fqpath(Path, _),
	        or(Op == "mkdir", Op == "create");
	mk3 response(@Src, Id, false, [], "parent missing") :-
	        request(@M, Id, Src, Op, Path, _), or(Op == "mkdir", Op == "create"),
	        notin fqpath(Path, _), notin req_pc(Id, _, _, _, _);

	// --- rm (files and empty directories) ---
	rm1 req_rm_ok(Id, Src, Fid, Path) :-
	        request(@M, Id, Src, "rm", Path, _), fqpath(Path, Fid), Fid != 0,
	        notin file(_, Fid, _, _);
	rm2 response(@Src, Id, false, [], "not found") :-
	        request(@M, Id, Src, "rm", Path, _), notin fqpath(Path, _);
	rm3 response(@Src, Id, false, [], "not empty") :-
	        request(@M, Id, Src, "rm", Path, _), fqpath(Path, Fid), file(_, Fid, _, _);
	rm4 delete file(Fid, P, N, D) :- req_rm_ok(_, _, Fid, _), file(Fid, P, N, D);
	rm5 delete fqpath(Path, Fid) :- req_rm_ok(_, _, Fid, Path);
	rm6 delete fchunk(C, Fid, I) :- req_rm_ok(_, _, Fid, _), fchunk(C, Fid, I);
	rm7 delete file_nchunks(Fid, N) :- req_rm_ok(_, _, Fid, _), file_nchunks(Fid, N);
	rm8 response(@Src, Id, true, [], "") :- req_rm_ok(Id, Src, _, _);
	rm9 response(@Src, Id, false, [], "cannot remove root") :-
	        request(@M, Id, Src, "rm", Path, _), Path == "/";

	// --- mv (files and empty directories; keeps fqpath maintenance
	// local to the moved entry) ---
	mv1 req_mv_ok(Id, Src, Fid, Path, NewPar, NewPath) :-
	        request(@M, Id, Src, "mv", Path, NewPath), fqpath(Path, Fid), Fid != 0,
	        notin fqpath(NewPath, _), fqpath(dirname(NewPath), NewPar),
	        file(NewPar, _, _, true), notin file(_, Fid, _, _);
	mv2 next file(Fid, NewPar, basename(NewPath), D) :-
	        req_mv_ok(_, _, Fid, _, NewPar, NewPath), file(Fid, _, _, D);
	mv3 delete fqpath(OldPath, Fid) :- req_mv_ok(_, _, Fid, OldPath, _, _);
	mv4 response(@Src, Id, true, [], "") :- req_mv_ok(Id, Src, _, _, _, _);
	mv5 response(@Src, Id, false, [], "mv failed") :-
	        request(@M, Id, Src, "mv", _, _), notin req_mv_ok(Id, _, _, _, _, _);

	// --- addchunk: allocate a chunk id, assign the next index, and
	// choose {{REPL}} live datanodes. The index counter is bumped with a
	// deferred (next) rule, the Dedalus-style idiom for read-and-update.
	ac1 fs_addchunk(Id, Src, Fid, hash(Id), N) :-
	        request(@M, Id, Src, "addchunk", Path, _), fqpath(Path, Fid),
	        file(Fid, _, _, false), file_nchunks(Fid, N);
	ac2 fchunk(Cid, Fid, Idx) :- fs_addchunk(_, _, Fid, Cid, Idx);
	ac3 next file_nchunks(Fid, N + 1) :- fs_addchunk(_, _, Fid, _, _), file_nchunks(Fid, N);
	ac4 chunk_loc_hint(Cid, pickk(All, {{REPL}}, hash(Cid))) :-
	        fs_addchunk(_, _, _, Cid, _), live_dn("live", All);
	ac5 response(@Src, Id, true, lconcat([Cid], Locs), "") :-
	        fs_addchunk(Id, Src, _, Cid, _), chunk_loc_hint(Cid, Locs), size(Locs) > 0;
	ac6 response(@Src, Id, false, [], "no live datanodes") :-
	        fs_addchunk(Id, Src, _, Cid, _), notin chunk_loc_hint(Cid, _);
	ac7 response(@Src, Id, false, [], "no live datanodes") :-
	        fs_addchunk(Id, Src, _, Cid, _), chunk_loc_hint(Cid, Locs), size(Locs) == 0;
	ac8 response(@Src, Id, false, [], "no such file") :-
	        request(@M, Id, Src, "addchunk", Path, _), notin fqpath(Path, _);

	// --- chunks: ordered [Idx, ChunkId] pairs for a file ---
	ck1 response(@Src, Id, true, setof<Pair>, "") :-
	        request(@M, Id, Src, "chunks", Path, _), fqpath(Path, Fid),
	        fchunk(C, Fid, I), Pair := [I, C];
	ck2 response(@Src, Id, true, [], "") :-
	        request(@M, Id, Src, "chunks", Path, _), fqpath(Path, Fid),
	        notin fchunk(_, Fid, _);
	ck3 response(@Src, Id, false, [], "not found") :-
	        request(@M, Id, Src, "chunks", Path, _), notin fqpath(Path, _);

	// --- chunklocs: live holders of a chunk, falling back to the
	// placement hint before the first heartbeat lands ---
	cl1 response(@Src, Id, true, Nodes, "") :-
	        request(@M, Id, Src, "chunklocs", _, Arg), C := toint(Arg),
	        chunk_repl(C, N, Nodes), N > 0;
	cl2 response(@Src, Id, true, Hint, "") :-
	        request(@M, Id, Src, "chunklocs", _, Arg), C := toint(Arg),
	        notin chunk_repl(C, _, _), chunk_loc_hint(C, Hint);
	cl3 response(@Src, Id, false, [], "no replicas") :-
	        request(@M, Id, Src, "chunklocs", _, Arg), C := toint(Arg),
	        notin chunk_repl(C, _, _), notin chunk_loc_hint(C, _);

	// --- Failure handling: re-replicate under-replicated chunks. The
	// failure detector is just a periodic join against heartbeat
	// timestamps; a repl_cmd asks a live holder to copy the chunk to a
	// live non-holder. Commands are re-issued until heartbeats show the
	// chunk healthy again (the copy is idempotent).
	periodic fd_tick interval {{FDTICK}};
	rr1 repl_cmd(@SrcNode, C, Target) :-
	        fd_tick(_, _), fchunk(C, _, _), chunk_repl(C, N, Nodes),
	        N > 0, N < {{REPL}}, live_dn("live", All),
	        Cands := ldiff(All, Nodes), size(Cands) > 0,
	        SrcNode := toaddr(nth(Nodes, 0)),
	        Target := toaddr(nth(pickk(Cands, 1, hash(C) + now()), 0));
`

// GCRules is the garbage-collection revision (listed as ongoing work
// in the paper): chunks no longer referenced by any file are purged
// from the datanodes that report them. Disabled for partitioned
// masters, where one shard cannot distinguish an orphan from another
// shard's chunk.
//
// GC is the one master action that destroys data, so "no file
// references this chunk" must hold for a full grace period before a
// purge: a replica that just crash-restarted heartbeats its datanode
// inventory immediately but may still be catching up on the decided
// metadata log, and treating that transient gap as an orphan turns a
// replica restart into permanent data loss (found by the chaos
// harness's durability monitor). Placeholders: GCTICK, GCGRACE,
// DNTIMEOUT.
const GCRules = `
	program boomfs_gc;

	periodic gc_tick interval {{GCTICK}};

	table orphan_since(ChunkId: int, T: int) keys(0);
	og1 next orphan_since(C, now()) :- gc_tick(_, _), hb_chunk(N, C, _),
	        notin fchunk(C, _, _), notin orphan_since(C, _);
	og2 delete orphan_since(C, T) :- gc_tick(_, _), orphan_since(C, T),
	        fchunk(C, _, _);
	og3 delete orphan_since(C, T) :- gc_tick(_, _), orphan_since(C, T),
	        notin hb_chunk(_, C, _);

	gc1 gc_cmd(@N, C) :- gc_tick(_, _), hb_chunk(N, C, _), notin fchunk(C, _, _),
	        orphan_since(C, T), now() - T > {{GCGRACE}},
	        datanode(N, T2), T2 >= now() - {{DNTIMEOUT}};
	// Forget the replica record optimistically; the next heartbeat
	// re-reports it if the datanode had not processed the command yet
	// (the command is idempotent and will be re-sent).
	gc2 delete hb_chunk(N, C, B) :- gc_tick(_, _), hb_chunk(N, C, B),
	        notin fchunk(C, _, _), orphan_since(C, T), now() - T > {{GCGRACE}};
`

// DataNodeRules runs on every datanode: heartbeats (liveness plus full
// chunk inventory) and the write pipeline are Overlog; only byte
// storage is Go (the chunkStore service). Placeholder: HBMS.
const DataNodeRules = `
	program boomfs_datanode;

	// master is a fact installed by Go; the chunkStore service injects
	// stored_chunk inventory rows and consumes dn_store requests.
	//lint:feed master stored_chunk
	//lint:export dn_store

	table master(M: addr);
	table stored_chunk(ChunkId: int, Bytes: int) keys(0);

	// Local event raised by pipeline rules for the storage service.
	event dn_store(ReqId: string, Client: addr, ChunkId: int, Data: string);

	periodic hb_timer interval {{HBMS}};

	hb1 dn_alive(@M, N) :- hb_timer(_, _), master(M), N := localaddr();
	hb2 dn_chunk(@M, N, C, B) :- hb_timer(_, _), master(M), stored_chunk(C, B),
	                             N := localaddr();

	// Write pipeline: store locally, forward to the next replica.
	w1 dn_store(Id, Cl, C, D) :- dn_write(@N, Id, Cl, C, D, _);
	w2 dn_write(@Next, Id, Cl, C, D, ltail(Rest)) :-
	        dn_write(@N, Id, Cl, C, D, Rest), size(Rest) > 0,
	        Next := toaddr(nth(Rest, 0));

	// Replication copies also land in the store (no client ack).
	w3 dn_store("", "", C, D) :- dn_replicate(@N, C, D);

	// Garbage collection: drop the inventory row; the chunkStore service
	// frees the bytes.
	g1 delete stored_chunk(C, B) :- gc_cmd(@N, C), stored_chunk(C, B);
`

// ClientRules runs on client nodes: it logs responses and data-plane
// acks into keyed tables the Go client API polls on.
const ClientRules = `
	program boomfs_client;

	// The Go client API polls these logs for completions.
	//lint:export resp_log ack_log read_log

	table resp_log(ReqId: string, Ok: bool, Result: list, Err: string) keys(0);
	table ack_log(ReqId: string, Node: addr);
	table read_log(ReqId: string, ChunkId: int, Data: string, Ok: bool) keys(0);

	c1 resp_log(Id, Ok, R, E) :- response(@C, Id, Ok, R, E);
	c2 ack_log(Id, N) :- dn_write_ack(@C, Id, _, N);
	c3 read_log(Id, C, D, Ok) :- dn_read_resp(@Cl, Id, C, D, Ok);
`

// MasterFeed turns the membership unit's alive datanodes into a dn_alive
// per failure-detector tick, the tuple a datanode's heartbeat produces.
// The head is deferred so it enters the next step as input, where span
// tracing stamps it under the datanode's address like a heartbeat.
const MasterFeed = `
	program boomfs_feed_master;
	mf1 next dn_alive(@Me, A) :- fd_tick(_, _), member(A, "datanode", 0, _), Me := localaddr();
`

// DataNodeFeed turns alive masters into master facts, so heartbeats fan
// out to replicas the datanode was never configured with.
const DataNodeFeed = `
	program boomfs_feed_datanode;
	mf2 master(A) :- member(A, "master", 0, _);
`

// LintUnits declares the analysis units for cmd/boomlint: the plain
// deployment (master, datanode, client roles), the same with membership
// feeding liveness, and the availability revision where master replicas
// gateway metadata writes through the Overlog Paxos log. Sources are
// expanded with the default config, exactly as the install path does.
func LintUnits() []analysis.Unit {
	cfg := DefaultConfig()
	master := expand(MasterRules, cfg.masterVars())
	gc := expand(GCRules, cfg.masterVars())
	dn := expand(DataNodeRules, map[string]string{"HBMS": fmt.Sprintf("%d", cfg.HeartbeatMS)})
	units := []analysis.Unit{{
		Name: "boomfs",
		Groups: map[string][]string{
			"master":   {ProtocolDecls, master, gc},
			"datanode": {ProtocolDecls, dn},
			"client":   {ProtocolDecls, ClientRules},
		},
	}, {
		Name: "boomfs-membership",
		Groups: map[string][]string{
			"master":   append(append([]string{ProtocolDecls, master, gc}, membership.LintSources()...), MasterFeed),
			"datanode": append(append([]string{ProtocolDecls, dn}, membership.LintSources()...), DataNodeFeed),
			"client":   {ProtocolDecls, ClientRules},
		},
	}}
	replica := append([]string{ProtocolDecls, master, gc}, paxos.LintSources()...)
	units = append(units, analysis.Unit{
		Name: "boomfs-replicated",
		Groups: map[string][]string{
			"replica":  append(replica, GatewayRules),
			"datanode": {ProtocolDecls, dn},
			"client":   {ProtocolDecls, ClientRules},
		},
	})
	return units
}
