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

let suites =
  [
    ( "commit.edge",
      [
        test "rpc validation threshold" rpc_validation_threshold;
        test "tiny log liveness" tiny_log_liveness;
        test "wide write set" wide_write_set;
        test "many-region commit" many_region_commit;
        test "blind write" blind_write;
        test "empty transaction" empty_transaction;
        test "txid uniqueness" txid_uniqueness;
        test "allocation spills to new region" allocation_spills_to_new_region;
      ] );
  ]
