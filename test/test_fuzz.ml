open Farm_sim
open Farm_fault

(* Tier-1 smoke run of the fault-schedule fuzzer: a fixed-seed batch of
   schedules must pass every check, and replaying a seed must reproduce the
   run bit-for-bit. The full 200-schedule sweep lives in the farm_fuzz
   binary (see EXPERIMENTS.md); this keeps a small always-on slice in the
   test suite with a reduced workload so regressions in recovery or the
   nemesis surface immediately. *)

let test name fn = Alcotest.test_case name `Quick fn

let smoke_opts =
  { Explorer.default_opts with machines = 5; workers = 1; duration = Time.ms 30 }

let fuzz_smoke () =
  let report = Explorer.sweep ~opts:smoke_opts ~base_seed:1 ~schedules:25 () in
  Alcotest.(check int) "schedules run" 25 report.Explorer.schedules;
  (match report.Explorer.failures with
  | [] -> ()
  | o :: _ ->
      Alcotest.failf "seed %d failed:@ %a" o.Explorer.seed Explorer.pp_outcome o);
  Alcotest.(check bool)
    "workload committed transactions" true
    (report.Explorer.total_committed > 1000)

let replay_identical () =
  (* same seed, twice: outcomes must be equal including the full trace *)
  let seed = 1 in
  let a = Explorer.run_one ~opts:smoke_opts seed in
  let b = Explorer.run_one ~opts:smoke_opts seed in
  Alcotest.(check (list string)) "traces byte-identical" a.Explorer.trace b.Explorer.trace;
  Alcotest.(check int) "committed identical" a.Explorer.committed b.Explorer.committed

let suites =
  [
    ( "fuzz",
      [ test "25 fixed-seed schedules pass" fuzz_smoke; test "seed replay is exact" replay_identical ]
    );
  ]
