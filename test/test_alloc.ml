open Farm_sim
open Farm_core
open Test_util

let test name fn = Alcotest.test_case name `Quick fn

(* Allocation-discipline tests (DESIGN.md, "Allocation discipline").

   The commit hot path runs on pooled per-worker arenas: flat int-keyed
   vectors reset (not reallocated) between transactions, preallocated
   wire-record batches, and explicit int comparators.  Two contracts are
   enforced here:

   - the end-to-end commit path stays within a fixed per-transaction
     host-heap budget, measured byte-exactly over a GC-quiet window
     ({!Farm_obs.Allocmeter});
   - pooling is invisible: with [Params.arena_reuse] off every commit
     gets a virgin arena, and a seeded workload — including a primary
     kill and the recovery that follows — must produce byte-identical
     traces, flight-recorder dumps and commit counts either way.  Any
     state leaking between transactions through a recycled arena shows
     up as a diff. *)

(* Host bytes per transaction of [batch st n], which runs [n]
   transactions on [machine], after a warm-up batch of 32: the first
   measurement window that no minor collection lands in, of up to four. *)
let quiet_bytes_per_tx c ~machine ~n batch =
  let rec attempt tries =
    let per_tx =
      Cluster.run_on c ~machine (fun st ->
          batch st 32;
          let (), bytes, clean = Farm_obs.Allocmeter.measure (fun () -> batch st n) in
          if clean then Some (bytes /. float_of_int n) else None)
    in
    match per_tx with
    | Some v -> v
    | None when tries > 0 -> attempt (tries - 1)
    | None -> Alcotest.fail "no GC-quiet measurement window"
  in
  attempt 3

(* {1 Per-commit allocation budget}

   The pre-refactor commit pipeline allocated 36 679 B per transaction on
   this workload (fresh hashtables, cons-lists, polymorphic sorts, and a
   GC-placement artifact the quiet-window methodology removes); the arena
   path measures 3 983 B.  The budget asserts the required >= 5x
   reduction (7 335 B) with headroom below it. *)
let budget_bytes_per_tx = 5_000.

(* The snapshot protocol pays for fresh timestamped COMMIT-BACKUP items
   and the version-chain archive on top of the baseline hot path; chain
   nodes are pooled, so the steady-state overhead is the per-commit wire
   items plus the commit-wait scheduling. *)
let snapshot_budget_bytes_per_tx = 7_000.

let commit_budget_mode ~params ~budget () =
  Farm_obs.Allocmeter.with_quiet_heap @@ fun () ->
  let c = Cluster.create ~params ~machines:3 () in
  let r1 = Cluster.alloc_region_exn c in
  let r2 = Cluster.alloc_region_exn c in
  let a, b =
    Cluster.run_on c ~machine:0 (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:16 ~region:r1.Wire.rid () in
              let b = Txn.alloc tx ~size:16 ~region:r2.Wire.rid () in
              (a, b))
        with
        | Ok v -> v
        | Error e -> Alcotest.failf "setup tx failed: %a" Txn.pp_abort e)
  in
  let payload = Bytes.make 16 'x' in
  let batch st n =
    for _ = 1 to n do
      match
        Api.run st ~thread:0 (fun tx ->
            ignore (Txn.read tx a ~len:16);
            Txn.write tx a payload;
            Txn.write tx b payload)
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "micro tx failed: %a" Txn.pp_abort e
    done
  in
  let per_tx = quiet_bytes_per_tx c ~machine:0 ~n:512 batch in
  if per_tx > budget then
    Alcotest.failf "commit allocates %.0f B/tx, budget %.0f B/tx" per_tx budget

let commit_budget () =
  commit_budget_mode ~params:Params.default ~budget:budget_bytes_per_tx ()

let commit_budget_snapshot () =
  commit_budget_mode
    ~params:{ Params.default with Params.protocol = Params.Snapshot }
    ~budget:snapshot_budget_bytes_per_tx ()

(* {1 Execute-phase allocation budget}

   One multi-object transaction of the TPC-C kind: ten hash-table lookups
   and inserts (updates once the keys cycle) and ten B-tree inserts into
   one tree, over a GC-quiet window like the commit budget's. The execute
   phase reads B-tree nodes and hash buckets in the transaction's own
   buffers, edits its write buffers in place and keys the read and write
   sets by packed address; the whole transaction, commit included, then
   measures 9 232 B. The execute phase before it, which parsed every node
   into arrays, compared bucket keys as sub-strings, copied buffers again
   before writing them and grew [Addr.Map] read and write sets, measured
   14 473 B on the same transaction. The budget leaves 20% headroom. *)
let execute_budget_bytes_per_tx = 11_000.

let execute_bytes_per_tx () =
  Farm_obs.Allocmeter.with_quiet_heap @@ fun () ->
  let c = Cluster.create ~params:Params.default ~machines:3 () in
  let r1 = (Cluster.alloc_region_exn c).Wire.rid in
  let r2 = (Cluster.alloc_region_exn c).Wire.rid in
  let table =
    Farm_kv.Hashtable.create c ~regions:[| r1; r2 |] ~buckets:64 ~ksize:8 ~vsize:16 ()
  in
  let tree =
    Cluster.run_on c ~machine:0 (fun st -> Farm_kv.Btree.create st ~thread:0 ~regions:[| r1 |] ())
  in
  let value = Bytes.make 16 'v' in
  let next = ref 0 in
  let batch st n =
    for _ = 1 to n do
      let base = !next in
      next := base + 10;
      match
        Api.run st ~thread:0 (fun tx ->
            for i = base to base + 9 do
              let key = Bytes.create 8 in
              Bytes.set_int64_le key 0 (Int64.of_int (i mod 200));
              ignore (Farm_kv.Hashtable.lookup tx table key);
              Farm_kv.Hashtable.insert tx table key value;
              Farm_kv.Btree.insert tx tree i i
            done)
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "execute tx failed: %a" Txn.pp_abort e
    done
  in
  quiet_bytes_per_tx c ~machine:0 ~n:128 batch

let execute_budget () =
  let per_tx = execute_bytes_per_tx () in
  if per_tx > execute_budget_bytes_per_tx then
    Alcotest.failf "execute-phase transaction allocates %.0f B/tx, budget %.0f B/tx" per_tx
      execute_budget_bytes_per_tx

(* {1 Snapshot read-path allocation budget}

   Read-only transactions of four reads under the snapshot protocol, the
   [ycsb_b_snapshot] shape: timestamp-ordered reads that commit locally.
   The coordinator is the region's primary, so each read is the read path
   itself ([Txn.read] down to [Objmem.read_snapshot]) with no fabric verb
   on top. The figure is the read path's own share: a transaction of four
   reads less an empty read-only transaction, both over GC-quiet windows
   like the budgets above, divided by four. It measures 39.5 B per read as
   [Allocmeter] reports it (42.5 under [--profile dev]); with each read's
   retry loop a local closure, which ocamlopt allocates on every call, it
   measured 50.5. The budget is the measured figure plus 20%. *)
let snapshot_read_budget_bytes_per_read = 47.

let snapshot_read_bytes_per_read () =
  Farm_obs.Allocmeter.with_quiet_heap @@ fun () ->
  let params = { Params.default with Params.protocol = Params.Snapshot } in
  let c = Cluster.create ~params ~machines:3 () in
  let r = Cluster.alloc_region_exn c in
  let cells =
    Cluster.run_on c ~machine:0 (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              Array.init 8 (fun _ ->
                  let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
                  Txn.write tx a (Bytes.make 8 '\000');
                  a))
        with
        | Ok v -> v
        | Error e -> Alcotest.failf "setup tx failed: %a" Txn.pp_abort e)
  in
  let next = ref 0 in
  let batch ~reads st n =
    for _ = 1 to n do
      let base = !next in
      next := base + reads;
      match
        Api.run st ~thread:0 (fun tx ->
            for i = base to base + reads - 1 do
              ignore (Txn.read tx cells.(i mod Array.length cells) ~len:8)
            done)
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "snapshot read tx failed: %a" Txn.pp_abort e
    done
  in
  let per_tx reads = quiet_bytes_per_tx c ~machine:r.Wire.primary ~n:512 (batch ~reads) in
  (per_tx 4 -. per_tx 0) /. 4.

let snapshot_read_budget () =
  let per_read = snapshot_read_bytes_per_read () in
  if per_read > snapshot_read_budget_bytes_per_read then
    Alcotest.failf "a snapshot read allocates %.1f B, budget %.0f B" per_read
      snapshot_read_budget_bytes_per_read

(* {1 Arena reuse is invisible}

   Same seed, same workload, arenas pooled vs virgin: traces and
   flight-recorder dumps must be byte-identical.  The workload crosses a
   primary kill so the comparison also covers the recovery paths that
   re-read retained log records. *)

let run_workload ~arena_reuse =
  let params = { quick_params with Params.arena_reuse } in
  let c = mk_cluster ~params ~machines:6 ~seed:23 () in
  Cluster.set_tracing c true;
  Cluster.set_recording c true;
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:4 ~init:0 in
  let stop = ref false in
  let writers =
    List.filter (fun m -> m <> r.Wire.primary) [ 0; 1; 2; 3; 4; 5 ]
  in
  List.iteri
    (fun i m ->
      let st = Cluster.machine c m in
      Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
          let k = ref i in
          while not !stop do
            (match
               Api.run_retry ~attempts:4 st ~thread:0 (fun tx ->
                   let cell = cells.(!k mod Array.length cells) in
                   let v = read_int tx cell in
                   write_int tx cell (v + 1))
             with
            | Ok () -> k := !k + 1
            | Error _ -> ());
            Proc.sleep (Time.us 200)
          done))
    writers;
  Cluster.run_for c ~d:(Time.ms 10);
  Cluster.kill c r.Wire.primary;
  Cluster.run_for c ~d:(Time.ms 120);
  stop := true;
  Cluster.run_for c ~d:(Time.ms 2);
  let trace = Cluster.trace_dump c in
  let flight = Cluster.flight_dump c in
  (trace, flight, Cluster.total_committed c, Cluster.total_aborted c)

let arena_reuse_invisible () =
  let trace_on, flight_on, committed_on, aborted_on =
    run_workload ~arena_reuse:true
  in
  let trace_off, flight_off, committed_off, aborted_off =
    run_workload ~arena_reuse:false
  in
  Alcotest.(check int) "committed equal" committed_off committed_on;
  Alcotest.(check int) "aborted equal" aborted_off aborted_on;
  Alcotest.(check (list string)) "flight dumps identical" flight_off flight_on;
  Alcotest.(check bool) "traces byte-identical" true
    (String.equal trace_off trace_on)

(* {1 A released arena pins nothing}

   After a commit, only the receivers' log records hold the transaction
   (§4), and truncation drops those. Once the cluster has quiesced, the
   committed value buffer must be garbage: a pooled arena that still
   staged its write item, or the COMMIT-BACKUP record that carried it,
   would keep it alive. One write to a region with two backups leaves
   more COMMIT-BACKUP than COMMIT-PRIMARY destinations, so a stale
   payload past the last append group's count is covered too. *)

let released_arena_pins_nothing () =
  let c = Cluster.create ~params:Params.default ~machines:3 () in
  let r = Cluster.alloc_region_exn c in
  let run f =
    Cluster.run_on c ~machine:0 (fun st ->
        match Api.run st ~thread:0 f with
        | Ok v -> v
        | Error e -> Alcotest.failf "tx failed: %a" Txn.pp_abort e)
  in
  let a = run (fun tx -> Txn.alloc tx ~size:16 ~region:r.Wire.rid ()) in
  let written = Weak.create 1 in
  run (fun tx ->
      let buf = Txn.modify tx a ~len:16 in
      Bytes.fill buf 0 16 'p';
      Weak.set written 0 (Some buf));
  Alcotest.(check bool) "quiesced" true (Cluster.quiesce c);
  Gc.full_major ();
  Alcotest.(check bool) "written value collected" false (Weak.check written 0);
  (* the cluster, arena pools included, is still reachable here *)
  Alcotest.(check int) "committed" 2 (Cluster.total_committed c)

let suites =
  [
    ( "alloc",
      [
        test "commit path stays within its allocation budget" commit_budget;
        test "snapshot-mode commit path stays within its budget" commit_budget_snapshot;
        test "execute phase stays within its allocation budget" execute_budget;
        test "snapshot read path stays within its allocation budget" snapshot_read_budget;
        test "arena reuse produces byte-identical runs" arena_reuse_invisible;
        test "a released arena pins no written value" released_arena_pins_nothing;
      ] );
  ]
