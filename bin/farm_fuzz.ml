(* farm-fuzz: deterministic fault-schedule fuzzing of the FaRM simulation.

     dune exec bin/farm_fuzz.exe -- --schedules 200 --seed 1 --jobs 8
     dune exec bin/farm_fuzz.exe -- --replay 4611686018427387904

   Each schedule runs a conserving bank + B-tree workload on a fresh
   cluster under a random timed fault script (crashes, restarts, power
   failures, partitions, lossy/slow links, lease stalls, clock skew), then
   heals, quiesces, and checks the committed history for strict
   serializability plus a battery of state invariants. Everything derives
   from integer seeds: a failing schedule prints its seed, and --replay
   reruns it with a byte-identical event trace. --jobs farms schedules out
   to worker domains; the report (progress lines, failure dumps, summary)
   is byte-identical whatever the job count, because outcomes are merged in
   seed order and printed only from the coordinating domain. *)

open Farm_sim
open Farm_fault
open Cmdliner

let opts_of ~machines ~cells ~workers ~duration_ms ~protocol ~perfetto ~gray =
  {
    Explorer.machines;
    cells;
    workers;
    duration = Time.ms duration_ms;
    protocol;
    record = true;
    perfetto;
    gray;
  }

(* Gray sweeps also gate graceful degradation: the SLO probes (no
   unexplained global commit stall, nothing parked past its timeout) run
   against every healed schedule. *)
let probe_of (opts : Explorer.opts) = if opts.Explorer.gray then Some Probes.gray else None

let run_explore ~opts ~seed ~schedules ~jobs ~verbose =
  let report =
    Explorer.sweep ~opts ?probe:(probe_of opts) ~jobs
      ~on_outcome:(fun ~index o ->
        if not (Explorer.ok o) then Fmt.pr "schedule %d: %a@." index Explorer.pp_outcome o
        else if verbose then Fmt.pr "schedule %d: %a@." index Explorer.pp_outcome o
        else if index mod 25 = 0 then Fmt.pr "... %d/%d schedules@." index schedules)
      ~base_seed:seed ~schedules ()
  in
  Fmt.pr "%d schedules, %d transactions committed, %d failures@."
    report.Explorer.schedules report.Explorer.total_committed
    (List.length report.Explorer.failures);
  List.iter
    (fun (o : Explorer.outcome) ->
      Fmt.pr "replay with: farm_fuzz --replay %d@." o.Explorer.seed)
    report.Explorer.failures;
  if report.Explorer.failures = [] then 0 else 1

let run_replay ~opts ~seed ~trace_flag ~perfetto_file =
  let o = Explorer.run_one ~opts ?probe:(probe_of opts) seed in
  List.iter (Fmt.pr "%s@.") o.Explorer.trace;
  Fmt.pr "%a@." Explorer.pp_outcome { o with Explorer.trace = []; Explorer.recorder = [] };
  if trace_flag then begin
    Fmt.pr "--- abort breakdown ---@.%a@."
      Fmt.(list ~sep:(any " ") (pair ~sep:(any "=") string int))
      o.Explorer.abort_causes;
    if o.Explorer.recorder <> [] then begin
      Fmt.pr "--- flight recorder (%d protocol events, merged across machines) ---@."
        (List.length o.Explorer.recorder);
      List.iter (Fmt.pr "%s@.") o.Explorer.recorder
    end
  end;
  (match (perfetto_file, o.Explorer.perfetto_json) with
  | Some file, Some json ->
      let oc = open_out file in
      output_string oc json;
      close_out oc;
      Fmt.pr "perfetto trace written to %s (open at ui.perfetto.dev)@." file
  | _ -> ());
  if Explorer.ok o then 0 else 1

let main seed schedules replay machines cells workers duration_ms protocol gray jobs verbose
    trace_flag perfetto_file =
  if machines < 3 then begin
    Fmt.epr "farm_fuzz: --machines must be at least 3 (every region needs f+1 = 3 replicas)@.";
    2
  end
  else if cells < 1 then begin
    Fmt.epr "farm_fuzz: --cells must be at least 1@.";
    2
  end
  else if jobs < 1 then begin
    Fmt.epr "farm_fuzz: --jobs must be at least 1@.";
    2
  end
  else begin
    let opts =
      opts_of ~machines ~cells ~workers ~duration_ms ~protocol
        ~perfetto:(perfetto_file <> None) ~gray
    in
    match replay with
    | Some s -> run_replay ~opts ~seed:s ~trace_flag ~perfetto_file
    | None ->
        if perfetto_file <> None then begin
          Fmt.epr "farm_fuzz: --perfetto requires --replay (one schedule, one trace)@.";
          2
        end
        else run_explore ~opts ~seed ~schedules ~jobs ~verbose
  end

let cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base seed for schedule derivation.") in
  let schedules =
    Arg.(value & opt int 50 & info [ "schedules"; "n" ] ~doc:"Number of schedules to explore.")
  in
  let replay =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay" ]
          ~doc:"Replay one schedule seed (as printed by a failing run) and dump its trace.")
  in
  let machines = Arg.(value & opt int 6 & info [ "machines"; "m" ] ~doc:"Cluster size.") in
  let cells = Arg.(value & opt int 16 & info [ "cells" ] ~doc:"Bank cells.") in
  let workers = Arg.(value & opt int 2 & info [ "workers"; "w" ] ~doc:"Workers per machine.") in
  let duration_ms =
    Arg.(value & opt int 60 & info [ "duration"; "d" ] ~doc:"Workload window per schedule (ms).")
  in
  let protocol =
    let proto_conv =
      Arg.enum
        [
          ("baseline", Farm_core.Params.Validate_at_commit);
          ("snapshot", Farm_core.Params.Snapshot);
        ]
    in
    Arg.(
      value
      & opt proto_conv Farm_core.Params.Validate_at_commit
      & info [ "protocol" ] ~docv:"PROTO"
          ~doc:
            "Commit protocol variant: $(b,baseline) (validate-at-commit, the default) or \
             $(b,snapshot) (multi-version reads at a global-time snapshot; read-only \
             transactions commit locally without VALIDATE).")
  in
  let gray =
    Arg.(
      value & flag
      & info [ "gray" ]
          ~doc:
            "Draw schedules from the gray-failure family (slow/lossy NICs, asymmetric \
             partitions, CPU throttling, lease flapping) instead of the classic \
             crash/partition pool, and additionally gate every schedule on the SLO \
             probes: no global commit stall without an active suspicion, no \
             transaction parked past its timeout.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Domain.recommended_domain_count ())
      & info [ "jobs"; "j" ]
          ~doc:
            "Worker domains for the schedule sweep (default: this machine's recommended \
             domain count). The report is byte-identical for any value.")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every schedule outcome.") in
  let trace_flag =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "With --replay: also dump the flight recorder (the last protocol events each \
             machine observed) and the abort-cause breakdown, even when the run passes.")
  in
  let perfetto_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "With --replay: capture a causal trace of the schedule and write it to $(docv) \
             as Chrome trace-event JSON (open at ui.perfetto.dev). Tracing never perturbs \
             the replay: the schedule's history is byte-identical with or without it.")
  in
  let term =
    Term.(
      const main $ seed $ schedules $ replay $ machines $ cells $ workers $ duration_ms
      $ protocol $ gray $ jobs $ verbose $ trace_flag $ perfetto_file)
  in
  Cmd.v (Cmd.info "farm_fuzz" ~doc:"Deterministic fault-schedule fuzzer for the FaRM simulation") term

let () = exit (Cmd.eval' cmd)
