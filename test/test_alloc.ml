open Farm_core

let test name fn = Alcotest.test_case name `Quick fn

(* Allocation-discipline tests (DESIGN.md, "Allocation discipline").

   The commit hot path stages its scratch in a per-commit arena of flat
   int-keyed vectors, preallocated wire-record batches, and explicit int
   comparators.  Two contracts are enforced here:

   - the execute, commit and snapshot-read paths stay within fixed
     per-transaction host-heap budgets, measured over GC-quiet windows
     ({!Farm_obs.Allocmeter}).  Its figures, and so every figure and
     budget below, are the minor-heap words allocated (the
     [Gc.minor_words] delta), though the names say bytes;
   - once a transaction has committed and its records are truncated,
     nothing of the commit path keeps its written value alive. *)

(* Allocated per transaction of [batch st n], which runs [n]
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

   The pre-refactor commit pipeline allocated 36 679 per transaction on
   this workload (fresh hashtables, cons-lists, polymorphic sorts, and a
   GC-placement artifact the quiet-window methodology removes); the arena
   path measured 3 983 when it landed and measures 2 415 now, with one
   fresh arena per commit.  The budget asserts the required >= 5x
   reduction (7 335) with headroom below it. *)
let budget_bytes_per_tx = 5_000.

(* The snapshot protocol pays for fresh timestamped COMMIT-BACKUP items,
   a version-chain node and an exact-size copy of the displaced value per
   write, and the commit-wait scheduling on top of the baseline hot
   path. *)
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
    Alcotest.failf "commit allocates %.0f words/tx, budget %.0f" per_tx budget

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
   sets by packed address; the whole transaction, commit included,
   measured 9 232 when that landed (7 304 now). The execute phase before
   it, which parsed every node into arrays, compared bucket keys as
   sub-strings, copied buffers again before writing them and grew
   [Addr.Map] read and write sets, measured 14 473 on the same
   transaction. The budget left 20% headroom over 9 232. *)
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
    Alcotest.failf "execute-phase transaction allocates %.0f words/tx, budget %.0f" per_tx
      execute_budget_bytes_per_tx

(* {1 Snapshot read-path allocation budget}

   Read-only transactions of four reads under the snapshot protocol, the
   [ycsb_b_snapshot] shape: timestamp-ordered reads that commit locally.
   The coordinator is the region's primary, so each read is the read path
   itself ([Txn.read] down to [Objmem.read_snapshot]) with no fabric verb
   on top. The figure is the read path's own share: a transaction of four
   reads less an empty read-only transaction, both over GC-quiet windows
   like the budgets above, divided by four. It measures 39.5 per read as
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
    Alcotest.failf "a snapshot read allocates %.1f words, budget %.0f" per_read
      snapshot_read_budget_bytes_per_read

(* {1 A finished commit pins nothing}

   After a commit, only the receivers' log records hold the transaction
   (§4), and truncation drops those. Once the cluster has quiesced, the
   committed value buffer must be garbage: anything the machine kept of
   the commit's arena, a background process still holding it, or the
   COMMIT-BACKUP record that carried the write item, would keep it
   alive. One write to a region with two backups leaves more
   COMMIT-BACKUP than COMMIT-PRIMARY destinations, so a payload left in
   the append staging past the last group's count is covered too. *)

let finished_commit_pins_nothing () =
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
  (* the cluster, and all of its machines' state, is still reachable here *)
  Alcotest.(check int) "committed" 2 (Cluster.total_committed c)

let suites =
  [
    ( "alloc",
      [
        test "commit path stays within its allocation budget" commit_budget;
        test "snapshot-mode commit path stays within its budget" commit_budget_snapshot;
        test "execute phase stays within its allocation budget" execute_budget;
        test "snapshot read path stays within its allocation budget" snapshot_read_budget;
        test "nothing pins a finished commit's written value" finished_commit_pins_nothing;
      ] );
  ]
