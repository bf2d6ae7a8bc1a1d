open Farm_sim
open Farm_fault

(* Gray-failure schedules through the explorer: slow-but-alive NICs,
   asymmetric partitions, CPU throttling and lease flapping must never
   cost correctness — any generated schedule, healed and quiesced, passes
   strict serializability, value conservation and the state invariants,
   in both commit-protocol variants. The QCheck property draws arbitrary
   seeds; a failure shrinks to the one seed to replay with
   [farm_fuzz --gray --replay N]. Replay fidelity (byte-identical traces
   across process runs and --jobs counts) is covered per-seed here and
   cluster-wide by the CI sweep. *)

let test name fn = Alcotest.test_case name `Quick fn
let qtest = QCheck_alcotest.to_alcotest

let gray_opts protocol =
  {
    Explorer.default_opts with
    machines = 5;
    workers = 1;
    duration = Time.ms 30;
    gray = true;
    protocol;
  }

let gray_property protocol =
  let name =
    Fmt.str "gray schedules safe under %s"
      (match protocol with
      | Farm_core.Params.Validate_at_commit -> "validate-at-commit"
      | Farm_core.Params.Snapshot -> "snapshot")
  in
  QCheck.Test.make ~name ~count:12
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let o =
        Explorer.run_one ~opts:(gray_opts protocol) ~probe:Probes.gray seed
      in
      if not (Explorer.ok o) then
        QCheck.Test.fail_reportf "seed %d violated:@ %a" seed Explorer.pp_outcome o;
      true)

(* Seed 927885 once never quiesced in either protocol: the CM came out of
   a lease stall suspecting all four others, probed nobody, and retried
   with the same suspects forever (DESIGN.md deviation 12). *)
let fixed_seed protocol () =
  let o = Explorer.run_one ~opts:(gray_opts protocol) ~probe:Probes.gray 927885 in
  Alcotest.(check (list string)) "no violations" [] o.Explorer.violations

(* The gray generator's own contract: budget discipline (never more
   suspicion-capable victims than replication can absorb) and determinism. *)
let generator_deterministic () =
  for seed = 0 to 20 do
    let gen () =
      Schedule.generate_gray ~seed ~machines:6 ~duration:(Time.ms 40)
        ~lease:(Time.ms 5)
    in
    let a = gen () and b = gen () in
    Alcotest.(check string)
      (Printf.sprintf "seed %d stable" seed)
      (Fmt.str "%a" Schedule.pp a) (Fmt.str "%a" Schedule.pp b)
  done

let replay_fidelity protocol () =
  (* one gray schedule, replayed: traces and flight-recorder dumps must be
     byte-identical — run_one twice in-process, and through sweep at
     different domain counts (the merge must not reorder anything) *)
  let opts = { (gray_opts protocol) with perfetto = true } in
  let seed = 3 in
  let a = Explorer.run_one ~opts seed in
  let b = Explorer.run_one ~opts seed in
  Alcotest.(check (list string)) "trace identical" a.Explorer.trace b.Explorer.trace;
  Alcotest.(check (list string))
    "flight recorder identical" a.Explorer.recorder b.Explorer.recorder;
  Alcotest.(check (option string))
    "perfetto dump identical" a.Explorer.perfetto_json b.Explorer.perfetto_json;
  Alcotest.(check int) "committed identical" a.Explorer.committed b.Explorer.committed;
  let collect jobs =
    let acc = ref [] in
    let _ =
      Explorer.sweep ~opts
        ~on_outcome:(fun ~index o ->
          acc := (index, o.Explorer.seed, o.Explorer.trace, o.Explorer.recorder) :: !acc)
        ~jobs ~base_seed:17 ~schedules:6 ()
    in
    List.rev !acc
  in
  let s1 = collect 1 and s4 = collect 4 in
  Alcotest.(check bool) "sweep outcomes identical at --jobs 1 vs 4" true (s1 = s4)

(* The SLO stall probe scans the load window only. A freshly built
   cluster idles for 125 ms (> 3 leases) before the window, and that
   set-up idle time is no stall; a 60 ms commit gap inside the window,
   with no suspicion, still is. *)
let stall_probe_window () =
  let c = Farm_core.Cluster.create ~seed:5 ~machines:3 () in
  let t = Farm_workloads.Tatp.create c ~subscribers:2_000 ~regions_per_table:2 in
  Farm_workloads.Tatp.load c t;
  Farm_core.Cluster.run_for c ~d:(Time.ms 125);
  let start = Farm_core.Cluster.now c in
  let load () =
    ignore
      (Farm_workloads.Driver.run c ~workers:2 ~duration:(Time.ms 10)
         ~op:(Farm_workloads.Tatp.op t))
  in
  load ();
  Alcotest.(check (list string))
    "set-up idle time is no stall" [] (Probes.no_global_stall ~start c);
  Farm_core.Cluster.run_for c ~d:(Time.ms 60);
  load ();
  match Probes.no_global_stall ~start c with
  | [ v ] ->
      Alcotest.(check bool)
        "the in-window gap is reported" true
        (String.starts_with ~prefix:"slo: global commit stall" v)
  | vs -> Alcotest.failf "expected one stall, got [%s]" (String.concat "; " vs)

let suites =
  [
    ( "grayfail",
      [
        test "stall probe scans the load window only" stall_probe_window;
        qtest (gray_property Farm_core.Params.Validate_at_commit);
        qtest (gray_property Farm_core.Params.Snapshot);
        test "seed 927885, validate-at-commit" (fixed_seed Farm_core.Params.Validate_at_commit);
        test "seed 927885, snapshot" (fixed_seed Farm_core.Params.Snapshot);
        test "generator deterministic" generator_deterministic;
        test "replay fidelity across jobs"
          (replay_fidelity Farm_core.Params.Validate_at_commit);
      ] );
  ]
