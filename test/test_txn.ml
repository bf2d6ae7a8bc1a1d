open Farm_sim
open Farm_core
open Test_util

let test name fn = Alcotest.test_case name `Quick fn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Basic transaction semantics} *)

let read_own_writes () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:5).(0) in
  let v =
    Cluster.run_on c ~machine:1 (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              write_int tx cell 9;
              read_int tx cell)
        with
        | Ok v -> v
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  check_int "reads own write" 9 v;
  check_int "committed value" 9 (read_cell c ~machine:2 cell)

let repeatable_reads () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:1).(0) in
  let same =
    Cluster.run_on c ~machine:1 (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              let a = read_int tx cell in
              Proc.sleep (Time.us 100);
              let b = read_int tx cell in
              a = b)
        with
        | Ok v -> v
        | Error _ -> false)
  in
  check_bool "successive reads identical" true same

let conflicting_writers_abort () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:0).(0) in
  (* two coordinators increment concurrently without retry: at most one of
     any conflicting pair commits, and the final value equals the number of
     successful commits *)
  let commits = ref 0 in
  let done_ = ref 0 in
  for m = 1 to 4 do
    let st = Cluster.machine c m in
    Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
        (match
           Api.run st ~thread:0 (fun tx ->
               let v = read_int tx cell in
               Proc.sleep (Time.us 20);
               write_int tx cell (v + 1))
         with
        | Ok () -> incr commits
        | Error Txn.Conflict -> ()
        | Error e -> Fmt.failwith "unexpected: %a" Txn.pp_abort e);
        incr done_)
  done;
  Cluster.run_for c ~d:(Time.ms 50);
  check_int "all finished" 4 !done_;
  check_int "value = commits" !commits (read_cell c ~machine:0 cell);
  check_bool "at least one committed" true (!commits >= 1)

let validation_catches_stale_read () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:2 ~init:0 in
  (* T1 reads both cells with a pause; T2 writes cell 1 during the pause;
     T1 writes cell 0 only, so cell 1 is read-validated and must fail *)
  let t1 = ref None in
  let st1 = Cluster.machine c 1 and st2 = Cluster.machine c 2 in
  Proc.spawn ~ctx:st1.State.ctx c.Cluster.engine (fun () ->
      t1 :=
        Some
          (Api.run st1 ~thread:0 (fun tx ->
               let a = read_int tx cells.(0) in
               let b = read_int tx cells.(1) in
               Proc.sleep (Time.ms 2);
               write_int tx cells.(0) (a + b + 1))));
  Proc.spawn ~ctx:st2.State.ctx c.Cluster.engine (fun () ->
      Proc.sleep (Time.us 500);
      match Api.run_retry st2 ~thread:0 (fun tx -> write_int tx cells.(1) 42) with
      | Ok () -> ()
      | Error e -> Fmt.failwith "t2 failed: %a" Txn.pp_abort e);
  Cluster.run_for c ~d:(Time.ms 50);
  check_bool "t1 aborted by validation" true (!t1 = Some (Error Txn.Conflict))

let read_only_multi_validates () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:2 ~init:50 in
  (* invariant: the two cells always sum to 100; a writer moves value
     between them while readers snapshot both *)
  let violations = ref 0 and reads = ref 0 in
  let stop = ref false in
  let writer = Cluster.machine c 1 in
  Proc.spawn ~ctx:writer.State.ctx c.Cluster.engine (fun () ->
      while not !stop do
        (match
           Api.run_retry writer ~thread:0 (fun tx ->
               let a = read_int tx cells.(0) in
               let b = read_int tx cells.(1) in
               write_int tx cells.(0) (a - 1);
               write_int tx cells.(1) (b + 1))
         with
        | Ok () -> ()
        | Error _ -> ());
        Proc.sleep (Time.us 50)
      done);
  for m = 2 to 4 do
    let st = Cluster.machine c m in
    Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
        while not !stop do
          (match
             Api.run st ~thread:0 (fun tx ->
                 let a = read_int tx cells.(0) in
                 let b = read_int tx cells.(1) in
                 (a, b))
           with
          | Ok (a, b) ->
              incr reads;
              if a + b <> 100 then incr violations
          | Error _ -> ());
          Proc.sleep (Time.us 30)
        done)
  done;
  Cluster.run_for c ~d:(Time.ms 40);
  stop := true;
  Cluster.run_for c ~d:(Time.ms 2);
  check_bool "collected reads" true (!reads > 100);
  check_int "no snapshot violations" 0 !violations

let lockfree_read_never_torn () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  (* a 16-byte object holding (v, -v): lock-free reads must never observe
     a half-written pair *)
  let addr =
    Cluster.run_on c ~machine:0 (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:16 ~region:r.Wire.rid () in
              let b = Bytes.create 16 in
              Bytes.set_int64_le b 0 0L;
              Bytes.set_int64_le b 8 0L;
              Txn.write tx a b;
              a)
        with
        | Ok a -> a
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  let stop = ref false in
  let torn = ref 0 and reads = ref 0 in
  let wst = Cluster.machine c 1 in
  Proc.spawn ~ctx:wst.State.ctx c.Cluster.engine (fun () ->
      let v = ref 0 in
      while not !stop do
        incr v;
        let b = Bytes.create 16 in
        Bytes.set_int64_le b 0 (Int64.of_int !v);
        Bytes.set_int64_le b 8 (Int64.of_int (- !v));
        (match Api.run_retry wst ~thread:0 (fun tx -> Txn.write tx addr b) with
        | Ok () -> ()
        | Error _ -> ());
        Proc.sleep (Time.us 20)
      done);
  for m = 2 to 4 do
    let st = Cluster.machine c m in
    Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
        while not !stop do
          (match Api.read_lockfree st addr ~len:16 with
          | Some b ->
              incr reads;
              let x = Int64.to_int (Bytes.get_int64_le b 0) in
              let y = Int64.to_int (Bytes.get_int64_le b 8) in
              if x <> -y then incr torn
          | None -> ());
          Proc.sleep (Time.us 10)
        done)
  done;
  Cluster.run_for c ~d:(Time.ms 30);
  stop := true;
  Cluster.run_for c ~d:(Time.ms 2);
  check_bool "many reads" true (!reads > 200);
  check_int "no torn reads" 0 !torn

let alloc_free_lifecycle () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let addr =
    Cluster.run_on c ~machine:1 (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
              write_int tx a 3;
              a)
        with
        | Ok a -> a
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  check_int "alive" 3 (read_cell c ~machine:2 addr);
  (* free it *)
  Cluster.run_on c ~machine:1 (fun st ->
      match Api.run_retry st ~thread:0 (fun tx -> Txn.free tx addr) with
      | Ok () -> ()
      | Error e -> Fmt.failwith "free: %a" Txn.pp_abort e);
  (* reading a freed object must fail *)
  let result =
    Cluster.run_on c ~machine:2 (fun st ->
        Api.run st ~thread:0 (fun tx -> read_int tx addr))
  in
  check_bool "freed object unreadable" true (result = Error Txn.Not_allocated)

let aborted_alloc_returns_slot () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let slot_addr = ref None in
  (* allocate then explicitly abort: the slot must be reusable *)
  let res =
    Cluster.run_on c ~machine:1 (fun st ->
        Api.run st ~thread:0 (fun tx ->
            let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
            slot_addr := Some a;
            Api.abort ()))
  in
  check_bool "explicit abort" true (res = Error Txn.Explicit);
  Cluster.run_for c ~d:(Time.ms 2);
  (* the same slot comes back on the next allocation (LIFO free list) *)
  let again =
    Cluster.run_on c ~machine:1 (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
              write_int tx a 1;
              a)
        with
        | Ok a -> a
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  check_bool "slot reused" true (Some again = !slot_addr)

let backups_apply_at_truncation () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:7).(0) in
  (* run long enough for lazy truncation to flush *)
  Cluster.run_for c ~d:(Time.ms 20);
  let primary_mem = Option.get (replica_mem c ~machine:r.Wire.primary r.Wire.rid) in
  List.iter
    (fun b ->
      let backup_mem = Option.get (replica_mem c ~machine:b r.Wire.rid) in
      let off = cell.Addr.offset in
      check_bool
        (Printf.sprintf "backup %d byte-identical at object" b)
        true
        (Farm_nvram.Pagemem.sub primary_mem off 16 = Farm_nvram.Pagemem.sub backup_mem off 16))
    r.Wire.backups

let remote_alloc () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  (* allocate from a machine that is not the region's primary *)
  let m = surviving_machine c ~not_in:[ r.Wire.primary ] in
  let addr =
    Cluster.run_on c ~machine:m (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:32 ~region:r.Wire.rid () in
              Txn.write tx a (Bytes.make 32 'z');
              a)
        with
        | Ok a -> a
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  check_int "in requested region" r.Wire.rid addr.Addr.region;
  check_bool "readable" true (read_cell c ~machine:0 addr <> 0)

(* An allocation is always placed: with neither [~near] nor [~region],
   [Txn.alloc] refuses before it takes a slot anywhere. *)
let unplaced_alloc_rejected () =
  let c = mk_cluster () in
  ignore (Cluster.alloc_region_exn c);
  Cluster.run_on c ~machine:0 (fun st ->
      let tx = Txn.begin_tx st ~thread:0 in
      Alcotest.check_raises "no placement"
        (Invalid_argument "Txn.alloc: neither ~near nor ~region") (fun () ->
          ignore (Txn.alloc tx ~size:8 ()));
      check_bool "nothing allocated" true (tx.Txn.allocated = []))

let multi_region_transaction () =
  let c = mk_cluster () in
  let r1 = Cluster.alloc_region_exn c in
  let r2 = Cluster.alloc_region_exn c in
  let a = (alloc_cells c ~region:r1.Wire.rid ~n:1 ~init:10).(0) in
  let b = (alloc_cells c ~region:r2.Wire.rid ~n:1 ~init:20).(0) in
  Cluster.run_on c ~machine:3 (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            let va = read_int tx a and vb = read_int tx b in
            write_int tx a (va + 5);
            write_int tx b (vb - 5))
      with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
  check_int "region 1 updated" 15 (read_cell c ~machine:1 a);
  check_int "region 2 updated" 15 (read_cell c ~machine:2 b)

(* Serializability under contention: counter incremented by racing
   transactions from every machine; final value must equal commit count. *)
let counter_serializability () =
  let c = mk_cluster ~machines:6 () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:0).(0) in
  let commits = ref 0 in
  let per_machine = 30 in
  let finished = ref 0 in
  for m = 0 to 5 do
    let st = Cluster.machine c m in
    Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
        for _ = 1 to per_machine do
          match
            Api.run_retry ~attempts:200 st ~thread:0 (fun tx ->
                let v = read_int tx cell in
                write_int tx cell (v + 1))
          with
          | Ok () -> incr commits
          | Error e -> Fmt.failwith "increment failed: %a" Txn.pp_abort e
        done;
        incr finished)
  done;
  let guard = ref 0 in
  while !finished < 6 && !guard < 3000 do
    incr guard;
    Cluster.run_for c ~d:(Time.ms 5)
  done;
  check_int "all workers done" 6 !finished;
  check_int "every commit visible exactly once" (6 * per_machine) (read_cell c ~machine:0 cell);
  check_int "all committed" (6 * per_machine) !commits

(* Freeing an object allocated in the same transaction cancels both
   operations and returns the tentative slot to the (possibly remote)
   primary. *)
let alloc_free_same_tx () =
  let c = mk_cluster () in
  let r = Cluster.alloc_region_exn c in
  let m = surviving_machine c ~not_in:[ r.Wire.primary ] in
  let committed_addr =
    Cluster.run_on c ~machine:m (fun st ->
        match
          Api.run st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
              write_int tx a 1;
              Txn.free tx a;
              (* the transaction still commits (with no writes for a) *)
              let b = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
              write_int tx b 2;
              b)
        with
        | Ok b -> b
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  check_int "second alloc committed" 2 (read_cell c ~machine:0 committed_addr);
  Cluster.run_for c ~d:(Time.ms 5);
  (* the cancelled slot is available again at the primary *)
  let again =
    Cluster.run_on c ~machine:m (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
              write_int tx a 3;
              a)
        with
        | Ok a -> a
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  check_int "slot reusable" 3 (read_cell c ~machine:0 again)

(* {1 Running set-up processes} *)

(* [f ()]'s result and the simulated ns it advanced the cluster by *)
let timed c f =
  let t0 = Cluster.now c in
  let v = f () in
  (Time.to_ns (Time.sub (Cluster.now c) t0), v)

let ms n = Time.to_ns (Time.ms n)

(* Processes that overlap in simulated time finish together, at the end of
   the quantum in which the last one returns. *)
let run_on_all_overlaps () =
  let c = mk_cluster () in
  let sleeper st =
    Proc.sleep (Time.us 1_500);
    (st.State.id, Time.to_ns (Proc.now ()))
  in
  let took, r = timed c (fun () -> Cluster.run_on_all c [ (1, sleeper); (2, sleeper) ]) in
  check_int "both done after 2 ms, not 3" (ms 2) took;
  Alcotest.(check (list (pair int int)))
    "each woke at 1.5 ms on its own machine"
    [ (1, 1_500_000); (2, 1_500_000) ]
    r

(* Results come back in argument order, not machine or finishing order. *)
let run_on_all_argument_order () =
  let c = mk_cluster () in
  let after d st =
    Proc.sleep d;
    st.State.id
  in
  Alcotest.(check (list int))
    "argument order" [ 3; 0; 2 ]
    (Cluster.run_on_all c
       [ (3, after (Time.us 1_800)); (0, after (Time.us 100)); (2, after Time.zero) ])

(* [run_on] keeps its contract: whole milliseconds, at least one. *)
let run_on_whole_ms () =
  let c = mk_cluster () in
  let took, () = timed c (fun () -> Cluster.run_on c ~machine:1 ignore) in
  check_int "an instant process takes one quantum" (ms 1) took;
  let took, () =
    timed c (fun () -> Cluster.run_on c ~machine:4 (fun _ -> Proc.sleep (Time.us 2_300)))
  in
  check_int "2.3 ms rounds up to 3" (ms 3) took

(* [alloc_regions] places regions exactly as one [alloc_region_exn] call
   per region, from one process in one quantum instead of one each. *)
let alloc_regions_one_quantum () =
  let n = 8 in
  let placement (i : Wire.region_info) = (i.Wire.rid, i.Wire.primary, i.Wire.backups) in
  let one_by_one = mk_cluster ~machines:7 () and batched = mk_cluster ~machines:7 () in
  let took_each, each =
    timed one_by_one (fun () -> List.init n (fun _ -> Cluster.alloc_region_exn one_by_one))
  in
  let took_all, all = timed batched (fun () -> Cluster.alloc_regions batched n) in
  Alcotest.(check (list (triple int int (list int))))
    "same rids, primaries and backups" (List.map placement each)
    (List.map placement (Array.to_list all));
  check_int "one quantum per region, one at a time" (ms n) took_each;
  check_int "one quantum for all" (ms 1) took_all

(* [settle] outlasts a log write on the wire. A write issued 500 ns
   before a quantum boundary has taken its sender's pending truncations
   but not yet reached the receiver's log at the boundary: only the
   sender's count of unsettled writes shows it there. *)
let settle_outlasts_log_write () =
  let c = mk_cluster () in
  let st = c.Cluster.machines.(0) in
  let boundary = Time.add (Cluster.now c) (Time.ms 1) in
  let result = ref None in
  Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
      Proc.sleep_until (Time.sub boundary (Time.ns 500));
      ignore (Ringlog.reserve (State.log_to st 1) 48);
      result :=
        Some
          (Logio.append_prepared st ~thread:0 ~n:1
             ~dst:(fun _ -> 1)
             ~payload:(fun _ -> Wire.Truncate_marker)));
  Cluster.run_for c ~d:(Time.ms 1);
  check_bool "at the boundary the write is on the wire" true
    (!result = None && st.State.log_writes = 1);
  let took, () = timed c (fun () -> Cluster.settle c) in
  check_bool "settle returns after the write completed" true (!result <> None);
  check_int "one more quantum" (ms 1) took

let suites =
  [
    ( "txn.semantics",
      [
        test "read own writes" read_own_writes;
        test "repeatable reads" repeatable_reads;
        test "conflicting writers" conflicting_writers_abort;
        test "validation catches stale read" validation_catches_stale_read;
        test "read-only snapshot" read_only_multi_validates;
        test "lock-free reads never torn" lockfree_read_never_torn;
        test "multi-region" multi_region_transaction;
        test "counter serializability" counter_serializability;
      ] );
    ( "txn.alloc",
      [
        test "alloc/free lifecycle" alloc_free_lifecycle;
        test "aborted alloc returns slot" aborted_alloc_returns_slot;
        test "remote alloc" remote_alloc;
        test "alloc+free in one tx" alloc_free_same_tx;
        test "unplaced alloc rejected" unplaced_alloc_rejected;
      ] );
    ("txn.replication", [ test "backups apply at truncation" backups_apply_at_truncation ]);
    ( "cluster.run_on",
      [
        test "overlapping processes finish together" run_on_all_overlaps;
        test "results in argument order" run_on_all_argument_order;
        test "run_on advances whole milliseconds" run_on_whole_ms;
      ] );
    ("cluster.alloc_regions", [ test "one process, same placement" alloc_regions_one_quantum ]);
    ("cluster.settle", [ test "outlasts a log write on the wire" settle_outlasts_log_write ]);
  ]
