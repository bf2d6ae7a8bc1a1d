open Farm_sim
open Farm_core
open Test_util

let test name fn = Alcotest.test_case name `Quick fn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Full-cluster power failure under load (§5): every committed transaction
   survives the restart, in-flight transactions resolve atomically via the
   standard vote/decide rules, and the cluster is fully live afterwards. *)
let power_cycle_under_load () =
  let c = mk_cluster ~machines:6 ~seed:21 () in
  let r = Cluster.alloc_region_exn c in
  let n = 16 in
  let cells = alloc_cells c ~region:r.Wire.rid ~n ~init:100 in
  (* transfer load so the power failure catches transactions mid-commit *)
  let stop = ref false in
  Array.iter
    (fun (st : State.t) ->
      for _ = 0 to 2 do
        Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
            let rng = Rng.split st.State.rng in
            while not !stop do
              let a = Rng.int rng n in
              let b = (a + 1 + Rng.int rng (n - 1)) mod n in
              (match
                 Api.run_retry ~attempts:4 st ~thread:0 (fun tx ->
                     let va = read_int tx cells.(a) in
                     let vb = read_int tx cells.(b) in
                     write_int tx cells.(a) (va - 3);
                     write_int tx cells.(b) (vb + 3))
               with
              | Ok () | Error _ -> ());
              Proc.sleep (Time.us 120)
            done)
      done)
    c.Cluster.machines;
  Cluster.run_for c ~d:(Time.ms 25);
  stop := true;
  (* pull the plug on the whole cluster, mid-flight *)
  Cluster.power_cycle c;
  Cluster.run_for c ~d:(Time.ms 120);
  (* the new configuration is in force everywhere *)
  Array.iter
    (fun (st : State.t) ->
      check_bool "machine alive after restart" true st.State.alive;
      check_int "boot configuration" 2 st.State.config.Config.id)
    c.Cluster.machines;
  (* conservation: committed transfers survived; in-flight ones resolved
     atomically *)
  check_int "money conserved across power failure" (n * 100)
    (sum_cells c ~machine:1 cells);
  (* liveness: new transactions commit on the rebooted cluster *)
  Cluster.run_on c ~machine:2 (fun st ->
      match
        Api.run_retry st ~thread:0 (fun tx ->
            Array.iter (fun a -> write_int tx a 5) cells)
      with
      | Ok () -> ()
      | Error e -> Fmt.failwith "not live after restart: %a" Txn.pp_abort e);
  check_int "fresh writes applied" (n * 5) (sum_cells c ~machine:3 cells);
  (* and new regions can still be allocated *)
  check_bool "region allocation works after restart" true
    (Cluster.alloc_region c <> None)

(* A committed value written right before the power failure must be
   readable afterwards — even when truncation had not yet propagated it to
   the backups (recovery replays it from the logs). *)
let committed_right_before_failure () =
  let c = mk_cluster ~machines:5 ~seed:9 () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:0).(0) in
  Cluster.run_on c ~machine:1 (fun st ->
      match Api.run_retry st ~thread:0 (fun tx -> write_int tx cell 424242) with
      | Ok () -> ()
      | Error e -> Fmt.failwith "%a" Txn.pp_abort e);
  (* no settling time: kill immediately, before lazy truncation *)
  Cluster.power_cycle c;
  Cluster.run_for c ~d:(Time.ms 120);
  check_int "reported-committed write survives" 424242 (read_cell c ~machine:2 cell)

(* Restarting a single machine (not the whole cluster) brings it back as a
   member able to serve again. *)
let single_machine_restart () =
  let c = mk_cluster ~machines:5 ~seed:4 () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:1).(0) in
  Cluster.run_for c ~d:(Time.ms 5);
  let victim = surviving_machine c ~not_in:[ 0 ] in
  Cluster.kill c victim;
  Cluster.run_for c ~d:(Time.ms 120);
  (* the cluster reconfigured without it *)
  check_bool "evicted" false
    (Config.is_member (Cluster.machine c 0).State.config victim);
  (* reboot it with the current configuration: it does not rejoin (the
     paper never re-admits machines mid-run) but must not disturb anyone *)
  let cfg = (Cluster.machine c 0).State.config in
  ignore (Cluster.restart_machine c victim ~config:cfg);
  Cluster.run_for c ~d:(Time.ms 60);
  check_int "data still correct" 1 (read_cell c ~machine:0 cell);
  check_int "no spurious reconfiguration" cfg.Config.id
    (Cluster.machine c 0).State.config.Config.id

(* Commit counts, abort counts and the per-ms commit series live in each
   machine's obs sink, which survives restarts: neither a power cycle nor
   one machine's crash and reboot may make the cluster's totals fall. *)
let measurements_survive_restarts () =
  let c = mk_cluster ~machines:5 ~seed:6 () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:0).(0) in
  Array.iter
    (fun (st : State.t) ->
      Cluster.run_on c ~machine:st.State.id (fun st ->
          for _ = 1 to 3 do
            match Api.run_retry st ~thread:0 (fun tx -> write_int tx cell (read_int tx cell + 1)) with
            | Ok () -> ()
            | Error e -> Fmt.failwith "%a" Txn.pp_abort e
          done;
          ignore (Api.run st ~thread:0 (fun _ -> Api.abort ()))))
    c.Cluster.machines;
  let totals () =
    ( Cluster.total_committed c,
      Cluster.total_aborted c,
      Array.fold_left ( + ) 0 (Cluster.throughput_series c ~until:(Cluster.now c)) )
  in
  let committed, aborted, series = totals () in
  check_bool "the fixture committed on every machine" true (committed >= 15);
  check_bool "the fixture aborted on every machine" true (aborted >= 5);
  let check_kept after =
    let committed', aborted', series' = totals () in
    check_bool ("commits kept after " ^ after) true (committed' >= committed);
    check_bool ("aborts kept after " ^ after) true (aborted' >= aborted);
    check_bool ("commit series kept after " ^ after) true (series' >= series)
  in
  Cluster.power_cycle c;
  Cluster.run_for c ~d:(Time.ms 120);
  check_kept "a power cycle";
  let victim = surviving_machine c ~not_in:[ 0 ] in
  Cluster.kill c victim;
  Cluster.run_for c ~d:(Time.ms 120);
  ignore (Cluster.restart_machine c victim ~config:(Cluster.machine c 0).State.config);
  Cluster.run_for c ~d:(Time.ms 60);
  check_kept "a machine restart"

let suites =
  [
    ( "powerfail",
      [
        test "power cycle under load" power_cycle_under_load;
        test "committed right before failure" committed_right_before_failure;
        test "single machine restart" single_machine_restart;
        test "measurements survive restarts" measurements_survive_restarts;
      ] );
  ]
