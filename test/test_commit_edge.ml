open Farm_sim
open Farm_core
open Test_util

let test name fn = Alcotest.test_case name `Quick fn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Validation switches to RPC above the tr threshold (4 reads per primary,
   §4 step 2); both paths must accept unchanged reads and reject changed
   ones. *)
let rpc_validation_threshold () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:8 ~init:5 in
  (* read 6 objects from one primary -> RPC validation; unchanged -> commit *)
  let ok =
    Cluster.run_on c ~machine:3 (fun st ->
        Api.run st ~thread:0 (fun tx ->
            Array.fold_left (fun acc a -> acc + read_int tx a) 0 cells))
  in
  check_bool "rpc-validated read-only commit" true (ok = Ok 40);
  (* now race a write between the reads and commit: must abort *)
  let st = Cluster.machine c 3 in
  let result = ref None in
  Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
      result :=
        Some
          (Api.run st ~thread:0 (fun tx ->
               let v = Array.fold_left (fun acc a -> acc + read_int tx a) 0 cells in
               Proc.sleep (Time.ms 2);
               v)));
  let w = Cluster.machine c 2 in
  Proc.spawn ~ctx:w.State.ctx c.Cluster.engine (fun () ->
      Proc.sleep (Time.us 500);
      match Api.run_retry w ~thread:0 (fun tx -> write_int tx cells.(0) 99) with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
  Cluster.run_for c ~d:(Time.ms 20);
  check_bool "rpc validation rejects changed read" true (!result = Some (Error Txn.Conflict))

(* Liveness with tiny logs: reservations force explicit truncation and
   commits keep flowing (§4). *)
let tiny_log_liveness () =
  let params = { quick_params with Params.log_size = 4096 } in
  let c = mk_cluster ~machines:4 ~params () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:4 ~init:0 in
  let committed = ref 0 in
  for m = 1 to 3 do
    let st = Cluster.machine c m in
    Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
        for i = 1 to 120 do
          match
            Api.run_retry st ~thread:0 (fun tx ->
                let v = read_int tx cells.(i mod 4) in
                write_int tx cells.(i mod 4) (v + 1))
          with
          | Ok () -> incr committed
          | Error e -> Fmt.failwith "tiny log stalled: %a" Txn.pp_abort e
        done)
  done;
  let guard = ref 0 in
  while !committed < 360 && !guard < 2000 do
    incr guard;
    Cluster.run_for c ~d:(Time.ms 5)
  done;
  check_int "all transactions committed through a 4KB log" 360 !committed;
  check_int "sum correct" 360 (sum_cells c ~machine:0 cells)

(* Wide transactions: hundreds of written objects in one commit. *)
let wide_write_set () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let n = 200 in
  let cells = alloc_cells c ~region:r.Wire.rid ~n ~init:0 in
  Cluster.run_on c ~machine:2 (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            Array.iteri (fun i a -> write_int tx a i) cells)
      with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
  check_int "first" 0 (read_cell c ~machine:1 cells.(0));
  check_int "last" (n - 1) (read_cell c ~machine:1 cells.(n - 1))

(* A transaction spanning several regions with distinct primaries uses the
   full multi-participant protocol. *)
let many_region_commit () =
  let c = mk_cluster ~machines:8 () in
  let regions = List.init 4 (fun _ -> Cluster.alloc_region_exn c) in
  let cells =
    List.map (fun (r : Wire.region_info) -> (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:1).(0)) regions
  in
  let primaries =
    List.sort_uniq compare (List.map (fun (r : Wire.region_info) -> r.Wire.primary) regions)
  in
  check_bool "multiple distinct primaries" true (List.length primaries >= 2);
  Cluster.run_on c ~machine:7 (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            List.iter (fun a -> write_int tx a (read_int tx a * 10)) cells)
      with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
  List.iter (fun a -> check_int "all regions updated" 10 (read_cell c ~machine:0 a)) cells

(* Each fan-out phase of a commit is one doorbell-batched verb group: a
   read-write transaction over regions with several distinct remote
   primaries and backups rings the coordinator's NIC exactly once for LOCK,
   once for the VALIDATE header reads (every read-only object sits at or
   below tr on its primary), once for COMMIT-BACKUP and once for
   COMMIT-PRIMARY, each batch covering every participant of its phase. *)
let fanout_phase_batches () =
  let c = mk_cluster ~machines:8 () in
  let written = List.init 4 (fun _ -> Cluster.alloc_region_exn c) in
  let read_only = List.init 2 (fun _ -> Cluster.alloc_region_exn c) in
  let cell (r : Wire.region_info) = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:1).(0) in
  let wcells = List.map cell written and rcells = List.map cell read_only in
  let primary (r : Wire.region_info) = r.Wire.primary in
  let coord = surviving_machine c ~not_in:(List.map primary (written @ read_only)) in
  let distinct l = List.sort_uniq compare l in
  let primaries = distinct (List.map primary written) in
  let backups =
    distinct (List.concat_map (fun (r : Wire.region_info) -> r.Wire.backups) written)
  in
  let remote l = List.filter (fun m -> m <> coord) l in
  check_bool "at least 2 remote primaries" true (List.length (remote primaries) >= 2);
  check_bool "at least 2 remote backups" true (List.length (remote backups) >= 2);
  (* let the setup transactions' truncations drain first *)
  Cluster.run_for c ~d:(Time.ms 10);
  let st = Cluster.machine c coord in
  let batches () = Farm_obs.Obs.counter st.State.obs Farm_obs.Obs.C_rdma_batch in
  let before = batches () in
  Farm_obs.Obs.set_enabled st.State.obs true;
  Cluster.run_on c ~machine:coord (fun st ->
      match
        Api.run st ~thread:0 (fun tx ->
            List.iter (fun a -> ignore (read_int tx a)) rcells;
            List.iter (fun a -> write_int tx a (read_int tx a + 1)) wcells)
      with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
  Cluster.run_for c ~d:(Time.ms 1);
  Farm_obs.Obs.set_enabled st.State.obs false;
  check_int "one batch per phase" 4 (batches () - before);
  let ops =
    List.filter_map
      (fun (_, line) -> Scanf.sscanf_opt line "rdma-batch ops=%d" Fun.id)
      (Farm_obs.Obs.events st.State.obs)
  in
  Alcotest.(check (list int))
    "ops per batch: LOCK, VALIDATE, COMMIT-BACKUP, COMMIT-PRIMARY"
    [ List.length primaries; List.length rcells; List.length backups; List.length primaries ]
    ops;
  List.iter (fun a -> check_int "written" 2 (read_cell c ~machine:0 a)) wcells

(* Write-only transactions (no reads) fetch versions on demand. *)
let blind_write () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:7).(0) in
  Cluster.run_on c ~machine:1 (fun st ->
      match Api.run st ~thread:0 (fun tx -> write_int tx cell 8) with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
  check_int "blind write applied" 8 (read_cell c ~machine:2 cell)

(* The empty transaction commits without any protocol traffic. *)
let empty_transaction () =
  let c = mk_cluster () in
  let before = Cluster.total_committed c in
  let res = Cluster.run_on c ~machine:1 (fun st -> Api.run st ~thread:0 (fun _ -> 42)) in
  check_bool "empty tx ok" true (res = Ok 42);
  check_int "counted" (before + 1) (Cluster.total_committed c)

(* Per-thread transaction ids stay unique and monotone under concurrency. *)
let txid_uniqueness () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:8 ~init:0 in
  let st = Cluster.machine c 1 in
  let done_ = ref 0 in
  for w = 0 to 7 do
    Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
        for _ = 1 to 20 do
          (match
             Api.run_retry st ~thread:(w mod st.State.params.Params.threads_per_machine)
               (fun tx ->
                 let i = w in
                 let v = read_int tx cells.(i) in
                 write_int tx cells.(i) (v + 1))
           with
          | Ok () -> ()
          | Error _ -> ());
          Proc.sleep (Time.us 50)
        done;
        incr done_)
  done;
  let guard = ref 0 in
  while !done_ < 8 && !guard < 1000 do
    incr guard;
    Cluster.run_for c ~d:(Time.ms 5)
  done;
  check_int "all workers finished" 8 !done_;
  (* low bounds advanced: truncation tracking saw unique monotone ids *)
  Array.iter
    (fun (st' : State.t) ->
      Int_tbl.iter
        (fun _ (t : State.trunc_track) ->
          check_bool "low bound sane" true (t.State.low >= 0))
        st'.State.truncated)
    c.Cluster.machines

(* Allocation spill: when a region fills up, the allocator transparently
   allocates a co-located overflow region via the CM (§3). *)
let allocation_spills_to_new_region () =
  let params = { quick_params with Params.region_size = 1 lsl 16 (* 64 KB *) } in
  let c = mk_cluster ~machines:5 ~params () in
  let r = Cluster.alloc_region_exn c in
  let before =
    Cluster.run_on c ~machine:0 (fun st -> Int_tbl.length st.State.region_map)
  in
  (* allocate far more than one region holds: 64 KB / 4 KB slots = 16 per
     region at most *)
  let addrs =
    Cluster.run_on c ~machine:1 (fun st ->
        List.init 60 (fun i ->
            match
              Api.run_retry st ~thread:0 (fun tx ->
                  let a = Txn.alloc tx ~size:2048 ~region:r.Wire.rid () in
                  write_int tx a i;
                  a)
            with
            | Ok a -> a
            | Error e -> Fmt.failwith "spill alloc %d: %a" i Txn.pp_abort e))
  in
  let regions_used =
    List.sort_uniq compare (List.map (fun (a : Addr.t) -> a.Addr.region) addrs)
  in
  check_bool "spilled into overflow regions" true (List.length regions_used > 1);
  let after = Cluster.run_on c ~machine:0 (fun st -> Int_tbl.length st.State.region_map) in
  check_bool "CM allocated new regions" true (after > before);
  (* every object is intact *)
  List.iteri (fun i a -> check_int "spilled object" i (read_cell c ~machine:2 a)) addrs

(* A log write that fails must requeue the truncations it drained, so a
   later record or the flusher still carries them (§4). The link from
   machine 1 to machine 2 is blackholed; neither is the CM, so no lease
   expires and no reconfiguration drops the queue. Both append paths run
   into it: a batch through [Logio.append_prepared], then the background
   flusher's TRUNCATE record. *)
let failed_append_requeues_truncations () =
  let c = mk_cluster () in
  let st = Cluster.machine c 1 in
  let txids =
    List.init 3 (fun i ->
        Txid.make ~config:st.State.config.Config.id ~machine:1 ~thread:0 ~local:(1000 + i))
  in
  (* taken in the same process right after the failure is settled, before
     the flusher's next round can pick the requeued ids up again *)
  let queued st = List.sort compare (State.take_truncations st ~dst:2) in
  let fails () = Farm_obs.Obs.counter st.State.obs Farm_obs.Obs.C_log_append_fail in
  let txid_list = Alcotest.(list (testable Txid.pp ( = ))) in
  Farm_net.Fabric.set_blackhole c.Cluster.fabric ~src:1 ~dst:2;
  List.iter (State.queue_truncation st ~dst:2) txids;
  let results, after_batch =
    Cluster.run_on c ~machine:1 (fun st ->
        Logio.reserve_or_flush st ~dst:2 256;
        let r =
          Logio.append_prepared st ~thread:0 ~n:1
            ~dst:(fun _ -> 2)
            ~payload:(fun _ -> Wire.Truncate_marker)
        in
        (r, queued st))
  in
  check_bool "batched append failed" true
    (match results with [| Error `Unreachable |] -> true | _ -> false);
  Alcotest.check txid_list "requeued after a failed batch" txids after_batch;
  List.iter (State.queue_truncation st ~dst:2) txids;
  let before = fails () in
  let after_flush =
    Cluster.run_on c ~machine:1 (fun st ->
        while fails () = before do
          Proc.sleep (Time.us 10)
        done;
        queued st)
  in
  Alcotest.check txid_list "requeued after a failed flush" txids after_flush

let suites =
  [
    ( "commit.edge",
      [
        test "rpc validation threshold" rpc_validation_threshold;
        test "tiny log liveness" tiny_log_liveness;
        test "wide write set" wide_write_set;
        test "many-region commit" many_region_commit;
        test "each fan-out phase rings one doorbell" fanout_phase_batches;
        test "blind write" blind_write;
        test "empty transaction" empty_transaction;
        test "txid uniqueness" txid_uniqueness;
        test "allocation spills to new region" allocation_spills_to_new_region;
        test "failed append requeues truncations" failed_append_requeues_truncations;
      ] );
  ]
