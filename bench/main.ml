(* The figure-regeneration harness: one entry per table/figure of the
   paper's evaluation (see DESIGN.md §3 for the per-experiment index).

     dune exec bench/main.exe            runs everything
     dune exec bench/main.exe -- fig9    runs one experiment
     dune exec bench/main.exe -- list    lists experiment ids
     dune exec bench/main.exe -- --jobs 8 ablations
                                         shards multi-config sweeps over
                                         8 worker domains (output is
                                         byte-identical to --jobs 1)     *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ("fig1", "energy to save DRAM to SSD (§2.1)", Fig_energy.run);
    ("fig2", "RDMA vs RPC read performance (§2.2)", Fig_netreads.run);
    ("fig7", "TATP throughput-latency", fun () -> Fig_curves.tatp ());
    ("fig8", "TPC-C throughput-latency", fun () -> Fig_curves.tpcc ());
    ("fig9", "TATP failure timeline", Fig_failures.fig9);
    ("fig10", "TPC-C failure timeline", Fig_failures.fig10);
    ("fig11", "CM failure timeline", Fig_failures.fig11);
    ("fig12", "distribution of recovery times", fun () -> Fig_failures.fig12 ());
    ("fig13", "correlated (failure-domain) failure", Fig_failures.fig13);
    ("fig14", "TATP with aggressive data recovery", Fig_failures.fig14);
    ("fig15", "TPC-C with aggressive data recovery", Fig_failures.fig15);
    ("fig16", "lease false positives by implementation", fun () -> Fig_lease.run ());
    ("readperf", "uniform KV lookups (§6.3)", fun () -> Readperf.run ());
    ("scaling", "FaRM vs single-machine engine (§6.3)", fun () -> Scaling.run ());
    ("ycsb", "YCSB core workloads (from [16])", fun () -> Ycsb_bench.run ());
    ("ablations", "design-choice ablations (CM rebuild, tr, f)", Ablations.run);
    ( "engine_scaling",
      "paper-scale TATP engine benchmark (3..90 machines, bytes/op)",
      fun () ->
        Engine_scaling.run ~smoke:!Bench_util.smoke
          ?check_baseline:!Bench_util.check_baseline () );
    ( "fanout",
      "high-fan-out commit: 12 machines, f+1 = 5, 8 regions per transaction",
      fun () -> Commit_fanout.run () );
    ( "opacity",
      "validate-at-commit vs snapshot protocol on contended YCSB-B/C",
      fun () -> Opacity_bench.run () );
    ( "slo",
      "SLO under gray failures: open-loop TATP, goodput/p999/max-stall",
      fun () ->
        Slo_bench.run ~smoke:!Bench_util.smoke
          ?check_baseline:!Bench_util.check_baseline () );
    ( "blame",
      "latency attribution: blame categories, heat ranking, critical paths",
      fun () -> Blame_bench.run ~smoke:!Bench_util.smoke () );
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* --jobs N: worker domains for sharded sweeps; must be consumed before
     any experiment spawns a domain *)
  let rec strip_jobs = function
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> Bench_util.jobs := j
        | _ ->
            Fmt.epr "main: --jobs expects a positive integer, got %S@." n;
            exit 2);
        strip_jobs rest
    | [ "--jobs" ] ->
        Fmt.epr "main: --jobs expects a value@.";
        exit 2
    | "--smoke" :: rest ->
        Bench_util.smoke := true;
        strip_jobs rest
    | "--check-baseline" :: file :: rest ->
        Bench_util.check_baseline := Some file;
        strip_jobs rest
    | [ "--check-baseline" ] ->
        Fmt.epr "main: --check-baseline expects a file@.";
        exit 2
    | args -> args
  in
  let args = strip_jobs args in
  match args with
  | [ "list" ] ->
      List.iter (fun (id, what, _) -> Fmt.pr "%-10s %s@." id what) experiments
  | [] ->
      Fmt.pr "FaRM reproduction benchmark harness — running all experiments@.";
      Fmt.pr "(scaled-down cluster sizes; shapes, not absolute numbers — see EXPERIMENTS.md)@.";
      List.iter
        (fun (_, _, run) ->
          let t0 = Unix.gettimeofday () in
          run ();
          Fmt.pr "@.[%.1fs wall]@." (Unix.gettimeofday () -. t0))
        experiments
  | ids ->
      List.iter
        (fun id ->
          match List.find_opt (fun (i, _, _) -> i = id) experiments with
          | Some (_, _, run) -> run ()
          | None ->
              Fmt.epr "unknown experiment %S; try: dune exec bench/main.exe -- list@." id;
              exit 1)
        ids
