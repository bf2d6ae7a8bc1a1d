open Farm_sim
open Farm_core
open Test_util
module Obs = Farm_obs.Obs

let test name fn = Alcotest.test_case name `Quick fn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Wait until reconfiguration and transaction-state recovery settle. *)
let settle c = Cluster.run_for c ~d:(Time.ms 120)

(* {1 Kill a machine at a precise commit-protocol point and verify the
   failure-atomicity contract: a transaction reported committed stays
   committed; one reported aborted/failed leaves no trace; an in-doubt
   transaction is decided consistently by the vote rules of §5.3.} *)

type who = Primary | Backup0 | Coordinator

let phase_kill_scenario ~phase ~who ~expect_commit () =
  let c = mk_cluster ~machines:6 () in
  let r = Cluster.alloc_region_exn c in
  let coord_machine = surviving_machine c ~not_in:(r.Wire.primary :: r.Wire.backups) in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:2 ~init:100 in
  Cluster.run_for c ~d:(Time.ms 5);
  let victim =
    match who with
    | Primary -> r.Wire.primary
    | Backup0 -> List.hd r.Wire.backups
    | Coordinator -> coord_machine
  in
  let st = Cluster.machine c coord_machine in
  let fired = ref false in
  st.State.phase_hook <-
    Some
      (fun p _txid ->
        if p = phase && not !fired then begin
          fired := true;
          Cluster.kill c victim
        end);
  let result = ref None in
  Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
      result :=
        Some
          (Api.run st ~thread:0 (fun tx ->
               let a = read_int tx cells.(0) in
               let b = read_int tx cells.(1) in
               write_int tx cells.(0) (a + 1);
               write_int tx cells.(1) (b + 1))));
  settle c;
  check_bool "kill hook fired" true !fired;
  (* read the cells from a surviving machine *)
  let reader = surviving_machine c ~not_in:[ victim ] in
  let va = read_cell c ~machine:reader cells.(0) in
  let vb = read_cell c ~machine:reader cells.(1) in
  check_int "atomic: both cells agree" va vb;
  (match (who, !result) with
  | Coordinator, _ -> ()  (* the coordinator died; no report to check *)
  | _, Some (Ok ()) ->
      check_int "reported committed => state committed" 101 va
  | _, Some (Error _) ->
      check_bool "reported aborted => no partial state" true (va = 100 || va = 101)
  | _, None -> Alcotest.fail "transaction neither returned nor machine died");
  (match expect_commit with
  | Some true -> check_int "vote rules decide commit" 101 va
  | Some false -> check_int "vote rules decide abort" 100 va
  | None -> ());
  (* locks must be released: the cells are writable again *)
  Cluster.run_on c ~machine:reader (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            write_int tx cells.(0) 500;
            write_int tx cells.(1) 500)
      with
      | Ok () -> ()
      | Error e -> Fmt.failwith "cells still locked: %a" Txn.pp_abort e);
  check_int "writable after recovery" 500 (read_cell c ~machine:reader cells.(0))

let kill_primary_before_lock =
  phase_kill_scenario ~phase:State.Before_lock ~who:Primary ~expect_commit:(Some false)

let kill_primary_after_lock =
  (* locks are held and validation needs no primary reads here, so the
     coordinator still writes COMMIT-BACKUP records to the (alive) backups;
     those records attest validation and the vote rules commit *)
  phase_kill_scenario ~phase:State.After_lock ~who:Primary ~expect_commit:(Some true)

let kill_backup_after_lock =
  (* the COMMIT-BACKUP write to the dead backup fails, but the one to the
     surviving backup lands; that surviving record is enough for the vote
     rules to commit (recovery re-replicates it to the new backup) *)
  phase_kill_scenario ~phase:State.After_lock ~who:Backup0 ~expect_commit:(Some true)

let kill_primary_after_commit_backup =
  (* every backup holds COMMIT-BACKUP; the promoted primary votes
     commit-backup -> commit, even though no primary processed the commit *)
  phase_kill_scenario ~phase:State.After_commit_backup ~who:Primary
    ~expect_commit:(Some true)

let kill_backup_after_commit_backup =
  (* all acks are in; commit proceeds at the primaries *)
  phase_kill_scenario ~phase:State.After_commit_backup ~who:Backup0
    ~expect_commit:(Some true)

let kill_primary_after_commit_primary =
  phase_kill_scenario ~phase:State.After_commit_primary ~who:Primary
    ~expect_commit:(Some true)

let kill_coordinator_after_lock =
  (* coordinator dies before validation completes: consistent-hash recovery
     coordinators collect lock votes only -> abort *)
  phase_kill_scenario ~phase:State.After_lock ~who:Coordinator ~expect_commit:(Some false)

let kill_coordinator_after_commit_backup =
  (* COMMIT-BACKUP records attest validation succeeded -> recovery commits
     a transaction whose coordinator never reported *)
  phase_kill_scenario ~phase:State.After_commit_backup ~who:Coordinator
    ~expect_commit:(Some true)

let kill_coordinator_after_commit_primary =
  phase_kill_scenario ~phase:State.After_commit_primary ~who:Coordinator
    ~expect_commit:(Some true)

(* {1 Reconfiguration and membership} *)

let reconfiguration_basics () =
  let c = mk_cluster ~machines:6 () in
  let r = Cluster.alloc_region_exn c in
  Cluster.run_for c ~d:(Time.ms 5);
  Cluster.kill c r.Wire.primary;
  settle c;
  let survivor = surviving_machine c ~not_in:[ r.Wire.primary ] in
  let st = Cluster.machine c survivor in
  check_int "configuration advanced" 2 st.State.config.Config.id;
  check_bool "dead machine evicted" false
    (Config.is_member st.State.config r.Wire.primary);
  (* a backup was promoted *)
  (match State.region_info st r.Wire.rid with
  | Some info ->
      check_bool "new primary is an old backup" true
        (List.mem info.Wire.primary r.Wire.backups);
      check_int "change ids updated" 2 info.Wire.last_primary_change
  | None -> Alcotest.fail "mapping lost");
  check_bool "milestones recorded" true
    (Cluster.first_event c Obs.K_ms_config_commit <> None);
  check_bool "not blocked" false st.State.blocked

let data_recovery_restores_replication () =
  let c = mk_cluster ~machines:6 () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:32 ~init:11 in
  Cluster.run_for c ~d:(Time.ms 10);
  Cluster.kill c r.Wire.primary;
  (* wait for reconfiguration + paced data recovery *)
  let guard = ref 0 in
  while Cluster.first_event c Obs.K_ms_data_rec_done = None && !guard < 100 do
    incr guard;
    Cluster.run_for c ~d:(Time.ms 20)
  done;
  check_bool "data recovery completed" true (Cluster.first_event c Obs.K_ms_data_rec_done <> None);
  let reps = Cluster.replicas_of c r.Wire.rid in
  let alive_reps =
    List.filter (fun (m, _) -> (Cluster.machine c m).State.alive) reps
  in
  check_int "f+1 replicas restored" 3 (List.length alive_reps);
  (* all alive replicas byte-identical on the object area *)
  let datas = List.map (fun (_, (rep : State.replica)) -> rep.State.mem) alive_reps in
  (match datas with
  | first :: rest ->
      List.iter
        (fun mem ->
          Array.iter
            (fun (cell : Addr.t) ->
              check_bool "replica bytes identical" true
                (Farm_nvram.Pagemem.sub first cell.Addr.offset 16
                = Farm_nvram.Pagemem.sub mem cell.Addr.offset 16))
            cells)
        rest
  | [] -> Alcotest.fail "no replicas");
  check_int "values survive" 11 (read_cell c ~machine:(fst (List.hd alive_reps)) cells.(0))

(* Two failures one after the other: a query from the second kill on
   finds the second data recovery, not the first one already in the log. *)
let second_data_recovery_after_second_kill () =
  let c = mk_cluster ~machines:8 () in
  let _r0 = Cluster.alloc_region_exn c in
  let r1 = Cluster.alloc_region_exn c in
  let r2 = Cluster.alloc_region_exn c in
  ignore (alloc_cells c ~region:r1.Wire.rid ~n:8 ~init:1);
  ignore (alloc_cells c ~region:r2.Wire.rid ~n:8 ~init:2);
  Cluster.run_for c ~d:(Time.ms 10);
  let kill_and_wait victim =
    let after = Cluster.now c in
    Cluster.kill c victim;
    let guard = ref 0 in
    while Cluster.first_event c ~after Obs.K_ms_data_rec_done = None && !guard < 100 do
      incr guard;
      Cluster.run_for c ~d:(Time.ms 20)
    done;
    match Cluster.first_event c ~after Obs.K_ms_data_rec_done with
    | Some at -> (after, at)
    | None -> Alcotest.fail "data recovery did not finish"
  in
  let _, first = kill_and_wait r1.Wire.primary in
  (* a live holder of the second region other than the CM *)
  let victim =
    List.find
      (fun (m, _) -> m <> 0 && (Cluster.machine c m).State.alive)
      (Cluster.replicas_of c r2.Wire.rid)
    |> fst
  in
  let kill2, second = kill_and_wait victim in
  check_bool "first recovery before the second kill" true Time.(first < kill2);
  check_bool "second recovery after the second kill" true Time.(second >= kill2);
  Alcotest.(check (option int)) "without [after], the first recovery" (Some first)
    (Cluster.first_event c Obs.K_ms_data_rec_done);
  let logged =
    List.map (fun (ev : Obs.record) -> ev.r_at) (Cluster.log_events c Obs.K_ms_data_rec_done)
  in
  check_bool "both recoveries logged, oldest first" true
    (List.hd logged = first && List.mem second logged)

let allocator_recovery_after_promotion () =
  let c = mk_cluster ~machines:6 () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:8 ~init:1 in
  Cluster.run_for c ~d:(Time.ms 10);
  Cluster.kill c r.Wire.primary;
  settle c;
  settle c;
  (* allocating from the promoted primary must work and not overlap live
     objects *)
  let survivor = surviving_machine c ~not_in:[ r.Wire.primary ] in
  let fresh =
    Cluster.run_on c ~machine:survivor (fun st ->
        match
          Api.run_retry ~attempts:200 st ~thread:0 (fun tx ->
              let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
              write_int tx a 999;
              a)
        with
        | Ok a -> a
        | Error e -> Fmt.failwith "alloc after promotion: %a" Txn.pp_abort e)
  in
  Array.iter
    (fun (cell : Addr.t) ->
      check_bool "no overlap with live objects" true (not (Addr.equal cell fresh)))
    cells;
  check_int "old objects intact" 1 (read_cell c ~machine:survivor cells.(0));
  check_int "new object visible" 999 (read_cell c ~machine:survivor fresh)

let cm_failure_recovers () =
  let c = mk_cluster ~machines:6 () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:4 ~init:42 in
  Cluster.run_for c ~d:(Time.ms 5);
  let cm = (Cluster.machine c 1).State.config.Config.cm in
  Cluster.kill c cm;
  settle c;
  settle c;
  let survivor = surviving_machine c ~not_in:[ cm ] in
  let st = Cluster.machine c survivor in
  check_bool "new CM elected" true (st.State.config.Config.cm <> cm);
  check_int "data survives CM failure" 42 (read_cell c ~machine:survivor cells.(0));
  (* the new CM can still allocate regions *)
  let r2 = Cluster.alloc_region ~from:survivor c in
  check_bool "region allocation works under new CM" true (r2 <> None)

let correlated_domain_failure () =
  (* 9 machines in 3 failure domains; replicas land in distinct domains, so
     killing one whole domain leaves >= 2 replicas of everything *)
  let c = mk_cluster ~machines:9 ~domains:(fun m -> m / 3) () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:8 ~init:77 in
  Cluster.run_for c ~d:(Time.ms 5);
  Cluster.kill_domain c 0;
  settle c;
  settle c;
  check_bool "no region lost" true (Cluster.lost_regions c = []);
  let survivor = 3 in
  check_int "data survives domain failure" 77 (read_cell c ~machine:survivor cells.(0));
  let st = Cluster.machine c survivor in
  check_int "six members remain" 6 (Config.size st.State.config)

let region_lost_detection () =
  let c = mk_cluster ~machines:7 () in
  (* the first region takes the least-loaded machines (including the CM);
     the second lands on three others — kill those, so the CM survives to
     detect the loss *)
  let _r1 = Cluster.alloc_region_exn c in
  let r = Cluster.alloc_region_exn c in
  ignore (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:1);
  Cluster.run_for c ~d:(Time.ms 5);
  let holders = r.Wire.primary :: r.Wire.backups in
  check_bool "CM not a holder" false (List.mem 0 holders);
  List.iter (fun m -> Cluster.kill c m) holders;
  settle c;
  settle c;
  check_bool "region loss detected" true (List.mem r.Wire.rid (Cluster.lost_regions c))

(* The same loss, detected by a CM that a power cycle restarted: restarted
   machines keep writing the cluster log, so the loss is still reported. *)
let region_lost_after_power_cycle () =
  let c = Cluster.create ~seed:42 ~machines:7 () in
  let _r1 = Cluster.alloc_region_exn c in
  let r = Cluster.alloc_region_exn c in
  Cluster.power_cycle c;
  Cluster.run_for c ~d:(Time.ms 50);
  let holders = r.Wire.primary :: r.Wire.backups in
  check_bool "CM not a holder" false (List.mem 0 holders);
  List.iter (Cluster.kill c) holders;
  Cluster.run_for c ~d:(Time.ms 240);
  check_bool "milestone logged" true
    (List.exists
       (fun (ev : Obs.record) -> ev.r_a = r.Wire.rid)
       (Cluster.log_events c Obs.K_ms_region_lost));
  Alcotest.(check (list int)) "region loss detected" [ r.Wire.rid ] (Cluster.lost_regions c)

let unaffected_transactions_continue () =
  (* transactions touching only unaffected regions keep committing during
     recovery of a failed machine *)
  let c = mk_cluster ~machines:8 () in
  let r1 = Cluster.alloc_region_exn c in
  (* find a region whose replicas avoid r1's primary *)
  let rec pick_other tries =
    if tries > 20 then None
    else
      let r2 = Cluster.alloc_region_exn c in
      if
        r2.Wire.primary <> r1.Wire.primary
        && not (List.mem r1.Wire.primary r2.Wire.backups)
      then Some r2
      else pick_other (tries + 1)
  in
  match pick_other 0 with
  | None -> Alcotest.skip ()
  | Some r2 ->
      let cell = (alloc_cells c ~region:r2.Wire.rid ~n:1 ~init:0).(0) in
      let coord =
        surviving_machine c
          ~not_in:(r1.Wire.primary :: (r2.Wire.primary :: r2.Wire.backups))
      in
      let st = Cluster.machine c coord in
      let commits_during_recovery = ref 0 in
      let stop = ref false in
      Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
          while not !stop do
            (match
               Api.run_retry st ~thread:0 (fun tx ->
                   let v = read_int tx cell in
                   write_int tx cell (v + 1))
             with
            | Ok () -> incr commits_during_recovery
            | Error _ -> ());
            Proc.sleep (Time.us 300)
          done);
      Cluster.run_for c ~d:(Time.ms 10);
      Cluster.kill c r1.Wire.primary;
      let before = !commits_during_recovery in
      (* the recovery window: suspect + reconfig takes several ms *)
      Cluster.run_for c ~d:(Time.ms 15);
      let during = !commits_during_recovery - before in
      stop := true;
      Cluster.run_for c ~d:(Time.ms 2);
      check_bool
        (Printf.sprintf "unaffected region kept committing (%d commits)" during)
        true (during > 10)

let committed_state_in_nvram () =
  (* even if every machine dies, committed data persists in the NVRAM of
     f+1 replicas (the durability basis for whole-cluster recovery) *)
  let c = mk_cluster ~machines:5 () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:0).(0) in
  Cluster.run_on c ~machine:1 (fun st ->
      match Api.run_retry st ~thread:0 (fun tx -> write_int tx cell 123_456) with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
  (* let truncation propagate the update to the backups *)
  Cluster.run_for c ~d:(Time.ms 30);
  for m = 0 to 4 do
    Cluster.kill c m
  done;
  let holders =
    List.filter_map
      (fun m -> replica_mem c ~machine:m r.Wire.rid)
      (r.Wire.primary :: r.Wire.backups)
  in
  check_int "f+1 NVRAM copies survive" 3 (List.length holders);
  List.iter
    (fun mem ->
      let v =
        Int64.to_int
          (Farm_nvram.Pagemem.get_int64_le mem (cell.Addr.offset + Obj_layout.header_size))
      in
      check_int "committed value durable in NVRAM" 123_456 v)
    holders

(* Regression: duplicate free hints (or an abort-return racing the
   allocator-recovery scan) must never hand one slot to two transactions —
   that corrupts whichever commits second. *)
let no_double_allocation () =
  let c = mk_cluster ~machines:5 () in
  let r = Cluster.alloc_region_exn c in
  let m = surviving_machine c ~not_in:[ r.Wire.primary ] in
  (* a remote allocation that aborts: the slot returns via FREE-SLOT hint *)
  let res =
    Cluster.run_on c ~machine:m (fun st ->
        Api.run st ~thread:0 (fun tx ->
            let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
            ignore a;
            Api.abort ()))
  in
  check_bool "aborted" true (res = Error Txn.Explicit);
  (* duplicate hints for slots already on the free list *)
  Cluster.run_on c ~machine:m (fun st ->
      for off = 0 to 4 do
        Comms.send st ~dst:r.Wire.primary
          (Wire.Free_slot_hint { addr = Addr.make ~region:r.Wire.rid ~offset:(off * 16) })
      done);
  Cluster.run_for c ~d:(Time.ms 5);
  (* now allocate many objects in one transaction: all must be distinct *)
  let addrs =
    Cluster.run_on c ~machine:m (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              List.init 64 (fun i ->
                  let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
                  write_int tx a i;
                  a))
        with
        | Ok l -> l
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
  in
  let uniq = List.sort_uniq Addr.compare addrs in
  check_int "all allocations distinct" (List.length addrs) (List.length uniq)

(* The B-tree keeps its invariants across a primary failure: structure
   modifications in flight either commit or vanish, and post-recovery
   inserts and scans behave. *)
let btree_across_failure () =
  let c = mk_cluster ~machines:6 ~seed:11 () in
  let r1 = Cluster.alloc_region_exn c in
  let r2 = Cluster.alloc_region_exn c in
  let tree =
    Cluster.run_on c ~machine:0 (fun st ->
        Farm_kv.Btree.create st ~thread:0 ~regions:[| r1.Wire.rid; r2.Wire.rid |] ~fanout:6 ())
  in
  let committed = Hashtbl.create 256 in
  let stop = ref false in
  let writers = List.filter (fun m -> m <> r1.Wire.primary) [ 1; 2; 3; 4; 5 ] in
  List.iteri
    (fun i m ->
      let st = Cluster.machine c m in
      Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
          let k = ref i in
          while not !stop do
            (match
               Api.run_retry ~attempts:6 st ~thread:0 (fun tx ->
                   Farm_kv.Btree.insert tx tree !k (!k * 2))
             with
            | Ok () ->
                Hashtbl.replace committed !k (!k * 2);
                k := !k + List.length writers
            | Error _ -> ());
            Proc.sleep (Time.us 150)
          done))
    writers;
  Cluster.run_for c ~d:(Time.ms 15);
  Cluster.kill c r1.Wire.primary;
  Cluster.run_for c ~d:(Time.ms 150);
  stop := true;
  Cluster.run_for c ~d:(Time.ms 5);
  let reader = surviving_machine c ~not_in:[ r1.Wire.primary ] in
  let found =
    Cluster.run_on c ~machine:reader (fun st ->
        match
          Api.run_retry ~attempts:100 st ~thread:0 (fun tx ->
              Farm_kv.Btree.range tx tree ~lo:0 ~hi:1_000_000)
        with
        | Ok l -> l
        | Error e -> Fmt.failwith "scan: %a" Txn.pp_abort e)
  in
  check_bool "inserted a meaningful number" true (Hashtbl.length committed > 50);
  (* every key reported committed must be present with the right value *)
  Hashtbl.iter
    (fun k v ->
      match List.assoc_opt k found with
      | Some v' -> check_bool (Printf.sprintf "key %d survives" k) true (v = v')
      | None -> Alcotest.failf "committed key %d lost" k)
    committed;
  (* keys in the tree but not in our table are in-flight casualties that
     recovery committed; they must at least be self-consistent *)
  List.iter (fun (k, v) -> check_bool "value consistent" true (v = k * 2)) found

(* Regression: a machine that is primary of one written region and backup
   of another holds two different lock payloads for the same transaction;
   recovery evidence must merge them, or commit-recovery at that machine
   skips the items of one region — leaking locks and losing writes. *)
let multi_region_mixed_role_recovery () =
  (* on 5 machines, placement gives r1 replicas [0,1,2] and r2 [3,4,0]:
     machine 0 is r1's primary and r2's backup *)
  let c = mk_cluster ~machines:5 ~seed:3 () in
  let r1 = Cluster.alloc_region_exn c in
  let r2 = Cluster.alloc_region_exn c in
  let mixed =
    List.filter (fun m -> List.mem m r2.Wire.backups) (r1.Wire.primary :: r1.Wire.backups)
  in
  if mixed = [] || r1.Wire.primary = r2.Wire.primary then Alcotest.skip ();
  let a = (alloc_cells c ~region:r1.Wire.rid ~n:1 ~init:10).(0) in
  let b = (alloc_cells c ~region:r2.Wire.rid ~n:1 ~init:20).(0) in
  Cluster.run_for c ~d:(Time.ms 5);
  (* any machine outside r2's replicas and not r1's primary can coordinate
     (it may back r1; that only adds traffic) *)
  let coord =
    surviving_machine c
      ~not_in:(r1.Wire.primary :: r2.Wire.primary :: r2.Wire.backups)
  in
  let st = Cluster.machine c coord in
  let fired = ref false in
  st.State.phase_hook <-
    Some
      (fun p _ ->
        if p = State.After_commit_backup && not !fired then begin
          fired := true;
          Cluster.kill c r2.Wire.primary
        end);
  let result = ref None in
  Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
      result :=
        Some
          (Api.run st ~thread:0 (fun tx ->
               let va = read_int tx a and vb = read_int tx b in
               write_int tx a (va + 1);
               write_int tx b (vb + 1))));
  settle c;
  check_bool "hook fired" true !fired;
  let reader = surviving_machine c ~not_in:[ r2.Wire.primary ] in
  (* COMMIT-BACKUP records existed at every backup: recovery must commit *)
  check_int "region-1 write applied at its unchanged primary" 11
    (read_cell c ~machine:reader a);
  check_int "region-2 write applied via promotion" 21 (read_cell c ~machine:reader b);
  (* and the mixed-role machine released the lock *)
  Cluster.run_on c ~machine:reader (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            write_int tx a 777;
            write_int tx b 777)
      with
      | Ok () -> ()
      | Error e -> Fmt.failwith "still locked: %a" Txn.pp_abort e)

(* §6.4: a region that loses all but one replica is re-replicated with the
   aggressive settings regardless of the configured pacing. *)
let critical_region_recovers_aggressively () =
  let params =
    { quick_params with Params.recovery_interval = Time.ms 4; region_size = 1 lsl 18 }
  in
  let c = mk_cluster ~machines:8 ~params () in
  let _r0 = Cluster.alloc_region_exn c in
  let r = Cluster.alloc_region_exn c in
  ignore (alloc_cells c ~region:r.Wire.rid ~n:8 ~init:5);
  Cluster.run_for c ~d:(Time.ms 10);
  let rec_time kill_list =
    List.iter (fun m -> Cluster.kill c m) kill_list;
    let guard = ref 0 in
    while Cluster.first_event c Obs.K_ms_data_rec_done = None && !guard < 400 do
      incr guard;
      Cluster.run_for c ~d:(Time.ms 10)
    done;
    match
      ( Cluster.first_event c Obs.K_ms_data_rec_start,
        Cluster.first_event c Obs.K_ms_data_rec_done )
    with
    | Some t0, Some t1 -> Time.sub t1 t0
    | _ -> Fmt.failwith "data recovery did not finish"
  in
  (* kill the primary AND one backup: one survivor -> critical *)
  let t_critical = rec_time [ r.Wire.primary; List.hd r.Wire.backups ] in
  (* the CM marked it critical *)
  let st = Cluster.machine c (surviving_machine c ~not_in:(r.Wire.primary :: r.Wire.backups)) in
  (match State.region_info st r.Wire.rid with
  | Some info -> check_bool "marked critical" true info.Wire.critical
  | None -> Alcotest.fail "mapping lost");
  (* compare against a single-replica loss of the same region shape *)
  let c2 = mk_cluster ~machines:8 ~params () in
  let _r0 = Cluster.alloc_region_exn c2 in
  let r2 = Cluster.alloc_region_exn c2 in
  ignore (alloc_cells c2 ~region:r2.Wire.rid ~n:8 ~init:5);
  Cluster.run_for c2 ~d:(Time.ms 10);
  Cluster.kill c2 r2.Wire.primary;
  let guard = ref 0 in
  while Cluster.first_event c2 Obs.K_ms_data_rec_done = None && !guard < 400 do
    incr guard;
    Cluster.run_for c2 ~d:(Time.ms 10)
  done;
  let t_paced =
    match
      ( Cluster.first_event c2 Obs.K_ms_data_rec_start,
        Cluster.first_event c2 Obs.K_ms_data_rec_done )
    with
    | Some t0, Some t1 -> Time.sub t1 t0
    | _ -> Fmt.failwith "paced recovery did not finish"
  in
  check_bool
    (Printf.sprintf "critical re-replication much faster (%a vs %a)"
       (fun () t -> Fmt.str "%a" Time.pp t) t_critical
       (fun () t -> Fmt.str "%a" Time.pp t) t_paced)
    true
    Time.(Time.mul_int t_critical 3 < t_paced)

(* Regression (found via Figure 11): every recovering transaction must be
   decided and its locks released even when (a) its votes land while the
   recipient is still committing the new configuration, and (b) the
   decision fan-out races a mapping-cache invalidation. We kill the CM
   under load — the scenario that exposed both — and then scan every
   primary replica for leaked locks. *)
let no_leaked_locks_after_cm_failure () =
  let c = mk_cluster ~machines:8 ~seed:42 () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:24 ~init:50 in
  let stop = ref false in
  Array.iter
    (fun (st : State.t) ->
      if st.State.id <> 0 then
        for _ = 0 to 3 do
          Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
              let rng = Rng.split st.State.rng in
              while not !stop do
                let a = Rng.int rng 24 and b = Rng.int rng 24 in
                (match
                   Api.run_retry ~attempts:4 st ~thread:0 (fun tx ->
                       let va = read_int tx cells.(a) in
                       let vb = read_int tx cells.(b) in
                       write_int tx cells.(a) (va + 1);
                       if a <> b then write_int tx cells.(b) (vb - 1))
                 with
                | Ok () | Error _ -> ());
                Proc.sleep (Time.us 120)
              done)
        done)
    c.Cluster.machines;
  Cluster.run_for c ~d:(Time.ms 20);
  Cluster.kill_cm c;
  Cluster.run_for c ~d:(Time.ms 200);
  stop := true;
  Cluster.run_for c ~d:(Time.ms 30);
  (* no locks left on any primary replica *)
  Array.iter
    (fun (st : State.t) ->
      if st.State.alive then
        Hashtbl.iter
          (fun rid (rep : State.replica) ->
            if rep.State.role = State.Primary then
              Hashtbl.iter
                (fun block slot ->
                  let base = block * st.State.params.Params.block_size in
                  for i = 0 to (st.State.params.Params.block_size / slot) - 1 do
                    let off = base + (i * slot) in
                    if Obj_layout.is_locked (Obj_layout.get rep.State.mem ~off) then
                      Alcotest.failf "leaked lock at m%d r%d+%d" st.State.id rid off
                  done)
                rep.State.block_headers)
          st.State.nv.replicas)
    c.Cluster.machines;
  (* every recovery coordination was decided *)
  Array.iter
    (fun (st : State.t) ->
      if st.State.alive then
        Txid.Tbl.iter
          (fun txid rc ->
            if not rc.State.rc_decided then
              Alcotest.failf "undecided recovering tx %a at m%d" Txid.pp txid st.State.id)
          st.State.rec_coords)
    c.Cluster.machines

(* Bank conservation across a failure, with transfers racing recovery. *)
let conservation_across_failure () =
  let c = mk_cluster ~machines:6 ~seed:7 () in
  let r = Cluster.alloc_region_exn c in
  let n = 24 in
  let cells = alloc_cells c ~region:r.Wire.rid ~n ~init:100 in
  let stop = ref false in
  Array.iter
    (fun (st : State.t) ->
      if st.State.id <> r.Wire.primary then
        for w = 0 to 2 do
          Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
              let rng = Rng.split st.State.rng in
              ignore w;
              while not !stop do
                let a = Rng.int rng n in
                let b = (a + 1 + Rng.int rng (n - 1)) mod n in
                (match
                   Api.run_retry ~attempts:4 st ~thread:0 (fun tx ->
                       let va = read_int tx cells.(a) in
                       let vb = read_int tx cells.(b) in
                       if va > 0 then begin
                         write_int tx cells.(a) (va - 1);
                         write_int tx cells.(b) (vb + 1)
                       end)
                 with
                | Ok () | Error _ -> ());
                Proc.sleep (Time.us 200)
              done)
        done)
    c.Cluster.machines;
  Cluster.run_for c ~d:(Time.ms 20);
  Cluster.kill c r.Wire.primary;
  Cluster.run_for c ~d:(Time.ms 150);
  stop := true;
  Cluster.run_for c ~d:(Time.ms 5);
  let survivor = surviving_machine c ~not_in:[ r.Wire.primary ] in
  check_int "money conserved across failure" (n * 100) (sum_cells c ~machine:survivor cells)

let suites =
  [
    ( "recovery.phase_kills",
      [
        test "primary @ before-lock -> abort" kill_primary_before_lock;
        test "primary @ after-lock -> abort" kill_primary_after_lock;
        test "backup @ after-lock -> abort" kill_backup_after_lock;
        test "primary @ after-commit-backup -> commit" kill_primary_after_commit_backup;
        test "backup @ after-commit-backup -> commit" kill_backup_after_commit_backup;
        test "primary @ after-commit-primary -> commit" kill_primary_after_commit_primary;
        test "coordinator @ after-lock -> abort" kill_coordinator_after_lock;
        test "coordinator @ after-commit-backup -> commit"
          kill_coordinator_after_commit_backup;
        test "coordinator @ after-commit-primary -> commit"
          kill_coordinator_after_commit_primary;
      ] );
    ( "recovery.reconfiguration",
      [
        test "basics" reconfiguration_basics;
        test "data recovery restores f+1" data_recovery_restores_replication;
        test "second kill's data recovery found by first_event ~after"
          second_data_recovery_after_second_kill;
        test "allocator recovery after promotion" allocator_recovery_after_promotion;
        test "CM failure" cm_failure_recovers;
        test "correlated domain failure" correlated_domain_failure;
        test "region loss detection" region_lost_detection;
        test "region loss detection after power cycle" region_lost_after_power_cycle;
        test "unaffected transactions continue" unaffected_transactions_continue;
      ] );
    ( "recovery.regressions",
      [
        test "no double allocation" no_double_allocation;
        test "multi-region mixed-role recovery" multi_region_mixed_role_recovery;
        test "critical region recovers aggressively" critical_region_recovers_aggressively;
        test "no leaked locks after CM failure" no_leaked_locks_after_cm_failure;
        test "btree across failure" btree_across_failure;
      ] );
    ( "recovery.durability",
      [
        test "committed state in NVRAM" committed_state_in_nvram;
        test "conservation across failure" conservation_across_failure;
      ] );
  ]
