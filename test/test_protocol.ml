open Farm_sim
open Farm_core
open Test_util

let test name fn = Alcotest.test_case name `Quick fn
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bank_load c ~cells ~until =
  let stop = ref false in
  Array.iter
    (fun (st : State.t) ->
      for _ = 0 to 3 do
        Proc.spawn ~ctx:st.State.ctx c.Cluster.engine (fun () ->
            let rng = Rng.split st.State.rng in
            let n = Array.length cells in
            while not !stop do
              let a = Rng.int rng n in
              let b = (a + 1 + Rng.int rng (n - 1)) mod n in
              (match
                 Api.run_retry ~attempts:4 st ~thread:0 (fun tx ->
                     let va = read_int tx cells.(a) in
                     let vb = read_int tx cells.(b) in
                     write_int tx cells.(a) (va - 1);
                     write_int tx cells.(b) (vb + 1))
               with
              | Ok () | Error _ -> ());
              Proc.sleep (Time.us 100)
            done)
      done)
    c.Cluster.machines;
  Cluster.run_until c ~at:until;
  stop := true;
  Cluster.run_for c ~d:(Time.ms 2)

(* Ring logs never exceed capacity, and lazy truncation eventually returns
   the space: reservations guarantee progress (§4). *)
let log_space_bounded () =
  let c = mk_cluster ~machines:5 () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:16 ~init:1000 in
  (* sample log occupancy during the run *)
  let max_used = ref 0 in
  let overflowed = ref false in
  Proc.spawn c.Cluster.engine (fun () ->
      while true do
        Proc.sleep (Time.ms 1);
        Array.iter
          (fun (st : State.t) ->
            Hashtbl.iter
              (fun _ log ->
                let u = Ringlog.used log in
                if u > !max_used then max_used := u;
                if u > Ringlog.capacity log then overflowed := true)
              st.State.nv.logs_in)
          c.Cluster.machines
      done);
  bank_load c ~cells ~until:(Time.ms 60);
  check_bool "logs saw traffic" true (!max_used > 0);
  check_bool "no log ever exceeded capacity" false !overflowed;
  (* after quiescence + a few flush intervals, truncation drained the logs *)
  Cluster.run_for c ~d:(Time.ms 30);
  Array.iter
    (fun (st : State.t) ->
      Hashtbl.iter
        (fun _ log ->
          check_int
            (Printf.sprintf "log %d->%d drained" (Ringlog.sender log) (Ringlog.receiver log))
            0 (Ringlog.used log))
        st.State.nv.logs_in)
    c.Cluster.machines

(* The piggybacked low bound keeps the truncated-id tracking compact. *)
let truncation_tracking_compact () =
  let c = mk_cluster ~machines:4 () in
  let r = Cluster.alloc_region_exn c in
  let cell = (alloc_cells c ~region:r.Wire.rid ~n:1 ~init:0).(0) in
  (* serial transactions from machine 1, thread 0 *)
  Cluster.run_on c ~machine:1 (fun st ->
      for _ = 1 to 80 do
        match
          Api.run_retry st ~thread:0 (fun tx ->
              let v = read_int tx cell in
              write_int tx cell (v + 1))
        with
        | Ok () -> ()
        | Error e -> Fmt.failwith "%a" Txn.pp_abort e
      done);
  Cluster.run_for c ~d:(Time.ms 30);
  (* at the primary, the tracker for coordinator (1,0) has advanced its low
     bound and keeps only a small set above it *)
  let st = Cluster.machine c r.Wire.primary in
  let t =
    State.trunc_track st
      ~coord:(Txid.coord_id (Txid.make ~config:1 ~machine:1 ~thread:0 ~local:0))
  in
  check_bool "low bound advanced" true (t.State.low > 40);
  check_bool "above-set compact" true (Int_tbl.length t.State.above < 20)

(* Precise membership: an evicted-but-alive machine (healed partition)
   cannot commit transactions from its stale configuration, and its stale
   log records never take locks. *)
let evicted_machine_is_harmless () =
  let c = mk_cluster ~machines:6 () in
  let r = Cluster.alloc_region_exn c in
  let cells = alloc_cells c ~region:r.Wire.rid ~n:4 ~init:100 in
  Cluster.run_for c ~d:(Time.ms 5);
  let victim = surviving_machine c ~not_in:[ r.Wire.primary; 0 ] in
  (* partition it away; the lease expires and it is evicted *)
  Cluster.partition c ~group:9 [ victim ];
  Cluster.run_for c ~d:(Time.ms 120);
  let st0 = Cluster.machine c 0 in
  check_bool "evicted" false (Config.is_member st0.State.config victim);
  check_int "configuration advanced" 2 st0.State.config.Config.id;
  (* heal the partition: the zombie still believes the old configuration *)
  Cluster.partition c ~group:0 [ victim ];
  let zombie = Cluster.machine c victim in
  check_int "zombie on stale config" 1 zombie.State.config.Config.id;
  let result = ref None in
  Proc.spawn ~ctx:zombie.State.ctx c.Cluster.engine (fun () ->
      result :=
        Some
          (Api.run zombie ~thread:0 (fun tx ->
               let v = read_int tx cells.(0) in
               write_int tx cells.(0) (v + 1_000_000))));
  Cluster.run_for c ~d:(Time.ms 100);
  (* the transaction must not have committed its stale write *)
  let v = read_cell c ~machine:0 cells.(0) in
  check_bool "stale write never applied" true (v < 1_000_000);
  check_bool "zombie tx did not report success" true
    (match !result with Some (Ok ()) -> false | _ -> true);
  (* and the cells are not left locked *)
  Cluster.run_on c ~machine:0 (fun st ->
      match Api.run_retry st ~thread:0 (fun tx -> write_int tx cells.(0) 7) with
      | Ok () -> ()
      | Error e -> Fmt.failwith "locked by zombie: %a" Txn.pp_abort e)

(* All surviving machines converge to the same configuration. *)
let config_convergence () =
  let c = mk_cluster ~machines:7 () in
  ignore (Cluster.alloc_region_exn c);
  Cluster.run_for c ~d:(Time.ms 5);
  Cluster.kill c 3;
  Cluster.run_for c ~d:(Time.ms 100);
  Cluster.kill c 5;
  Cluster.run_for c ~d:(Time.ms 150);
  let ids =
    Array.to_list c.Cluster.machines
    |> List.filter (fun (st : State.t) -> st.State.alive)
    |> List.map (fun (st : State.t) -> st.State.config.Config.id)
    |> List.sort_uniq compare
  in
  check_int "single configuration" 1 (List.length ids);
  check_int "two reconfigurations" 3 (List.hd ids);
  Array.iter
    (fun (st : State.t) ->
      if st.State.alive then begin
        check_bool "3 evicted" false (Config.is_member st.State.config 3);
        check_bool "5 evicted" false (Config.is_member st.State.config 5)
      end)
    c.Cluster.machines

(* Seed-sweep conservation fuzz: random victim, random kill time, always
   conserved. *)
let conservation_fuzz () =
  for seed = 1 to 5 do
    let c = mk_cluster ~machines:6 ~seed:(seed * 31) () in
    let r = Cluster.alloc_region_exn c in
    let n = 12 in
    let cells = alloc_cells c ~region:r.Wire.rid ~n ~init:100 in
    let rng = Rng.create (seed * 7) in
    let victim = 1 + Rng.int rng 5 in
    let kill_at = Time.ms (8 + Rng.int rng 30) in
    Engine.schedule c.Cluster.engine ~at:kill_at (fun () -> Cluster.kill c victim);
    bank_load c ~cells ~until:(Time.ms 60);
    Cluster.run_for c ~d:(Time.ms 100);
    let reader = surviving_machine c ~not_in:[ victim ] in
    check_int
      (Printf.sprintf "seed %d: conserved (victim %d at %a)" seed victim
         (fun () t -> Fmt.str "%a" Time.pp t)
         kill_at)
      (n * 100)
      (sum_cells c ~machine:reader cells)
  done

(* Deterministic replay: identical seeds produce identical histories. *)
let determinism () =
  let run seed =
    let c = mk_cluster ~machines:5 ~seed () in
    let r = Cluster.alloc_region_exn c in
    let cells = alloc_cells c ~region:r.Wire.rid ~n:8 ~init:50 in
    Engine.schedule c.Cluster.engine ~at:(Time.ms 20) (fun () -> Cluster.kill c 2);
    bank_load c ~cells ~until:(Time.ms 50);
    ( Cluster.total_committed c,
      Cluster.total_aborted c,
      Engine.events_processed c.Cluster.engine )
  in
  let a = run 1234 and b = run 1234 and c = run 4321 in
  check_bool "same seed, same history" true (a = b);
  check_bool "different seed, different history" true (a <> c)

let suites =
  [
    ( "protocol",
      [
        test "log space bounded" log_space_bounded;
        test "truncation tracking compact" truncation_tracking_compact;
        test "evicted machine harmless" evicted_machine_is_harmless;
        test "config convergence" config_convergence;
        test "conservation fuzz" conservation_fuzz;
        test "determinism" determinism;
      ] );
  ]
