(* farm-cli: run FaRM workloads on a simulated cluster with custom
   parameters and optional failure injection.

     dune exec bin/farm_cli.exe -- tatp --machines 8 --workers 8 --kill 40
     dune exec bin/farm_cli.exe -- tpcc --warehouses 4
     dune exec bin/farm_cli.exe -- kv --keys 20000
     dune exec bin/farm_cli.exe -- bank --accounts 128 --kill-cm 30      *)

open Farm_sim
open Farm_core
open Farm_workloads
open Cmdliner
module Obs = Farm_obs.Obs

type common = {
  machines : int;
  seed : int;
  workers : int;
  duration_ms : int;
  lease_ms : int;
  kill_ms : int option;  (* kill a non-CM machine at this offset *)
  kill_cm_ms : int option;
  power_cycle_ms : int option;  (* whole-cluster power failure *)
  stats : bool;  (* print per-machine counters and phase histograms *)
  perfetto : string option;  (* write a causal trace of the run here *)
  protocol : Params.protocol;
  blame : bool;  (* latency attribution: category table, heat, critical paths *)
}

let common_term =
  let machines =
    Arg.(value & opt int 6 & info [ "machines"; "m" ] ~doc:"Cluster size.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic RNG seed.") in
  let workers =
    Arg.(value & opt int 6 & info [ "workers"; "w" ] ~doc:"Workers per machine.")
  in
  let duration_ms =
    Arg.(value & opt int 100 & info [ "duration"; "d" ] ~doc:"Measured milliseconds.")
  in
  let lease_ms = Arg.(value & opt int 5 & info [ "lease" ] ~doc:"Lease duration (ms).") in
  let kill_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill" ] ~doc:"Kill a non-CM machine N ms into the measurement.")
  in
  let kill_cm_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-cm" ] ~doc:"Kill the configuration manager N ms in.")
  in
  let power_cycle_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "power-cycle" ]
          ~doc:"Power-fail the whole cluster N ms in and reboot it from NVRAM.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "After the run, print the per-machine protocol counters and the merged \
             commit-phase / recovery-stage latency tables.")
  in
  let perfetto =
    Arg.(
      value
      & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "Capture a causal trace of the whole run and write it to $(docv) as Chrome \
             trace-event JSON (open at ui.perfetto.dev). Tracing never perturbs the \
             simulation.")
  in
  let protocol =
    Arg.(
      value
      & opt (enum [ ("baseline", Params.Validate_at_commit); ("snapshot", Params.Snapshot) ])
          Params.Validate_at_commit
      & info [ "protocol" ]
          ~doc:
            "Read/validate stack: $(b,baseline) (SOSP'15 validate-at-commit) or \
             $(b,snapshot) (FaRMv2-style opacity via global time; enables the \
             snapshot-read / ro-commit / wm-trim counters and the commit-wait phase \
             shown under $(b,--stats)).")
  in
  let blame =
    Arg.(
      value & flag
      & info [ "blame" ]
          ~doc:
            "Attribute every transaction's latency to exclusive categories (admission, \
             execute, lock-wait, logring-wait, nic-issue, propagation, poll, \
             commit-wait, truncate) and print the category table, the per-region heat \
             ranking, and the slowest transactions' cross-machine critical paths. With \
             $(b,--perfetto), critical-path slices are tagged $(i,crit=1). \
             Determinism-inert: the simulated history is unchanged.")
  in
  let mk machines seed workers duration_ms lease_ms kill_ms kill_cm_ms power_cycle_ms stats
      perfetto protocol blame =
    {
      machines;
      seed;
      workers;
      duration_ms;
      lease_ms;
      kill_ms;
      kill_cm_ms;
      power_cycle_ms;
      stats;
      perfetto;
      protocol;
      blame;
    }
  in
  Term.(
    const mk $ machines $ seed $ workers $ duration_ms $ lease_ms $ kill_ms $ kill_cm_ms
    $ power_cycle_ms $ stats $ perfetto $ protocol $ blame)

let params_of c =
  { Params.default with Params.lease_duration = Time.ms c.lease_ms; protocol = c.protocol }

let schedule_kills cluster c =
  let schedule offset pick =
    Engine.schedule cluster.Cluster.engine
      ~at:(Time.add (Cluster.now cluster) (Time.ms offset))
      (fun () ->
        let victim = pick () in
        Fmt.pr "killing machine %d at t=%a@." victim Time.pp (Cluster.now cluster);
        Cluster.kill cluster victim)
  in
  Option.iter
    (fun off ->
      schedule off (fun () -> (Cluster.cm cluster + 1) mod c.machines))
    c.kill_ms;
  Option.iter
    (fun off -> schedule off (fun () -> Cluster.cm cluster))
    c.kill_cm_ms;
  Option.iter
    (fun off ->
      Engine.schedule cluster.Cluster.engine
        ~at:(Time.add (Cluster.now cluster) (Time.ms off))
        (fun () ->
          Fmt.pr "power failure: rebooting the whole cluster from NVRAM at t=%a@." Time.pp
            (Cluster.now cluster);
          Cluster.power_cycle cluster))
    c.power_cycle_ms

let report cluster c (stats : Driver.stats) =
  let duration = Time.ms c.duration_ms in
  Fmt.pr "@.results over %a:@." Time.pp duration;
  Fmt.pr "  committed ops        %d (%.3f per us)@."
    (Stats.Counter.get stats.Driver.ops)
    (Driver.throughput_per_us stats ~duration);
  Fmt.pr "  failed ops           %d@." (Stats.Counter.get stats.Driver.failures);
  Fmt.pr "  median latency       %.1f us@."
    (float_of_int (Stats.Hist.percentile stats.Driver.latency 50.) /. 1e3);
  Fmt.pr "  99th latency         %.1f us@."
    (float_of_int (Stats.Hist.percentile stats.Driver.latency 99.) /. 1e3);
  Fmt.pr "  commits/aborts       %d / %d@." (Cluster.total_committed cluster)
    (Cluster.total_aborted cluster);
  if c.kill_ms <> None || c.kill_cm_ms <> None || c.power_cycle_ms <> None then begin
    Fmt.pr "@.recovery milestones:@.";
    List.iter
      (fun (r : Obs.record) ->
        if Obs.is_milestone r.r_kind && r.r_kind <> Obs.K_ms_region_recovered then
          Fmt.pr "  %-16s m%-3d %a@." (Obs.milestone_tag r.r_kind ~a:r.r_a) r.r_machine Time.pp
            (Time.ns r.r_at))
      (Obs.log_records cluster.Cluster.log)
  end;
  if c.stats then begin
    Fmt.pr "@.%a" Cluster.pp_stats cluster;
    Fmt.pr "@.abort breakdown: %a@."
      Fmt.(list ~sep:(any " ") (pair ~sep:(any "=") string int))
      (Cluster.abort_breakdown cluster);
    (* snapshot-protocol counters (nonzero only under --protocol snapshot) *)
    let snap_counters =
      List.filter
        (fun (n, _) ->
          List.mem n [ "snap-read"; "snap-chain-read"; "ro-commit"; "wm-trim" ])
        (Cluster.merged_counters cluster)
    in
    if snap_counters <> [] then
      Fmt.pr "@.snapshot protocol: %a@."
        Fmt.(list ~sep:(any " ") (pair ~sep:(any "=") string int))
        snap_counters;
    Fmt.pr "@.nic traffic:@.";
    Array.iter
      (fun (st : State.t) ->
        let nic = Farm_net.Fabric.nic cluster.Cluster.fabric st.State.id in
        Fmt.pr "  m%-3d %8d ops %12d bytes@." st.State.id (Farm_net.Nic.ops nic)
          (Farm_net.Nic.bytes_total nic))
      cluster.Cluster.machines
  end;
  if c.blame then begin
    let us ns = float_of_int ns /. 1e3 in
    Fmt.pr "@.latency blame (exclusive categories, cluster totals):@.";
    let hists = Cluster.merged_blame_hists cluster in
    List.iter
      (fun (name, total) ->
        match List.assoc_opt name hists with
        | Some h ->
            Fmt.pr "  %-12s %12.1f us  (n=%d p50=%.1f p99=%.1f us)@." name (us total)
              (Stats.Hist.count h)
              (us (Stats.Hist.percentile h 50.))
              (us (Stats.Hist.percentile h 99.))
        | None -> Fmt.pr "  %-12s %12.1f us@." name (us total))
      (Cluster.blame_totals cluster);
    (* ns-exact reconciliation with the phase accounting (DESIGN.md §9) *)
    let sum l = List.fold_left (fun acc (_, v) -> acc + v) 0 l in
    let blame_sum =
      sum (List.filter (fun (n, _) -> n <> "admission") (Cluster.blame_totals cluster))
    in
    Fmt.pr "  (blame sum %d ns, phase sum %d ns)@." blame_sum
      (sum (Cluster.phase_totals cluster));
    (match Cluster.heat_report cluster with
    | [] -> ()
    | heat ->
        Fmt.pr "@.region heat (hottest first, score = access + 4*conflict):@.";
        List.iteri
          (fun i (h : Cluster.heat) ->
            if i < 10 then
              Fmt.pr "  r%-4d score %8d  access %8d  conflict %6d@." h.Cluster.h_region
                h.Cluster.h_score h.Cluster.h_access h.Cluster.h_conflict)
          heat);
    match Cluster.critpaths cluster ~k:3 with
    | [] -> ()
    | paths ->
        Fmt.pr "@.slowest transactions (critical-path hops starred):@.";
        List.iter print_string paths
  end;
  match c.perfetto with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      output_string oc
        (if c.blame then Cluster.trace_dump_critical cluster ~k:8
         else Cluster.trace_dump cluster);
      close_out oc;
      Fmt.pr "@.perfetto trace written to %s (open at ui.perfetto.dev)@." file

let run_workload c ~setup =
  let cluster = Cluster.create ~seed:c.seed ~params:(params_of c) ~machines:c.machines () in
  if c.perfetto <> None then Cluster.set_tracing cluster true;
  let op = setup cluster in
  (* armed after load so the exemplars (and their critical paths) come from
     the measured workload, not the bulk-load phase *)
  if c.blame then Cluster.set_blame cluster true;
  schedule_kills cluster c;
  let stats =
    Driver.run cluster ~workers:c.workers ~warmup:(Time.ms 5)
      ~duration:(Time.ms c.duration_ms) ~op
  in
  report cluster c stats

(* {1 Subcommands} *)

let tatp_cmd =
  let subscribers =
    Arg.(value & opt int 3000 & info [ "subscribers" ] ~doc:"TATP database size.")
  in
  let run c subscribers =
    run_workload c ~setup:(fun cluster ->
        Fmt.pr "loading TATP (%d subscribers)...@." subscribers;
        let t = Tatp.create cluster ~subscribers ~regions_per_table:2 in
        Tatp.load cluster t;
        Tatp.op t)
  in
  Cmd.v (Cmd.info "tatp" ~doc:"Run the TATP benchmark.")
    Term.(const run $ common_term $ subscribers)

let tpcc_cmd =
  let warehouses = Arg.(value & opt int 4 & info [ "warehouses" ] ~doc:"Warehouse count.") in
  let run c warehouses =
    run_workload c ~setup:(fun cluster ->
        Fmt.pr "loading TPC-C (%d warehouses)...@." warehouses;
        let scale = { Tpcc.default_scale with Tpcc.warehouses } in
        let t = Tpcc.create cluster ~scale () in
        Tpcc.load cluster t;
        Tpcc.op t)
  in
  Cmd.v (Cmd.info "tpcc" ~doc:"Run the TPC-C benchmark.")
    Term.(const run $ common_term $ warehouses)

let kv_cmd =
  let keys = Arg.(value & opt int 10_000 & info [ "keys" ] ~doc:"Key count.") in
  let run c keys =
    run_workload c ~setup:(fun cluster ->
        Fmt.pr "loading %d keys...@." keys;
        let t = Kvlookup.create cluster ~keys ~regions:4 in
        Kvlookup.load cluster t;
        Kvlookup.op t)
  in
  Cmd.v (Cmd.info "kv" ~doc:"Run the uniform key-value lookup workload.")
    Term.(const run $ common_term $ keys)

let bank_cmd =
  let accounts = Arg.(value & opt int 64 & info [ "accounts" ] ~doc:"Account count.") in
  let run c accounts =
    let cluster = Cluster.create ~seed:c.seed ~params:(params_of c) ~machines:c.machines () in
    if c.perfetto <> None then Cluster.set_tracing cluster true;
    let region = Cluster.alloc_region_exn cluster in
    let cells =
      Cluster.run_on cluster ~machine:0 (fun st ->
          match
            Api.run_retry st ~thread:0 (fun tx ->
                Array.init accounts (fun _ ->
                    let a = Txn.alloc tx ~size:8 ~region:region.Wire.rid () in
                    let b = Bytes.create 8 in
                    Bytes.set_int64_le b 0 1000L;
                    Txn.write tx a b;
                    a))
          with
          | Ok v -> v
          | Error e -> Fmt.failwith "setup: %a" Txn.pp_abort e)
    in
    if c.blame then Cluster.set_blame cluster true;
    schedule_kills cluster c;
    let stats =
      Driver.run cluster ~workers:c.workers ~warmup:(Time.ms 5)
        ~duration:(Time.ms c.duration_ms) ~op:(fun ctx ->
          let rng = ctx.Driver.rng in
          let a = Rng.int rng accounts in
          let b = (a + 1 + Rng.int rng (accounts - 1)) mod accounts in
          match
            Api.run_retry ~attempts:8 ctx.Driver.st ~thread:ctx.Driver.thread (fun tx ->
                let va = Int64.to_int (Bytes.get_int64_le (Txn.read tx cells.(a) ~len:8) 0) in
                let vb = Int64.to_int (Bytes.get_int64_le (Txn.read tx cells.(b) ~len:8) 0) in
                if va > 0 then begin
                  let wa = Bytes.create 8 and wb = Bytes.create 8 in
                  Bytes.set_int64_le wa 0 (Int64.of_int (va - 1));
                  Bytes.set_int64_le wb 0 (Int64.of_int (vb + 1));
                  Txn.write tx cells.(a) wa;
                  Txn.write tx cells.(b) wb
                end)
          with
          | Ok () -> true
          | Error _ -> false)
    in
    report cluster c stats;
    (* conservation audit *)
    let reader =
      List.find
        (fun m -> (Cluster.machine cluster m).State.alive)
        (List.init c.machines Fun.id)
    in
    let total =
      Cluster.run_on cluster ~machine:reader (fun st ->
          match
            Api.run_retry st ~thread:0 (fun tx ->
                Array.fold_left
                  (fun acc a ->
                    acc + Int64.to_int (Bytes.get_int64_le (Txn.read tx a ~len:8) 0))
                  0 cells)
          with
          | Ok v -> v
          | Error e -> Fmt.failwith "audit: %a" Txn.pp_abort e)
    in
    Fmt.pr "@.audit: total=%d expected=%d — %s@." total (accounts * 1000)
      (if total = accounts * 1000 then "conserved" else "NOT CONSERVED!")
  in
  Cmd.v (Cmd.info "bank" ~doc:"Run the bank-transfer conservation workload.")
    Term.(const run $ common_term $ accounts)

let () =
  let doc = "FaRM reproduction: simulated distributed transactions with RDMA" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "farm-cli" ~doc) [ tatp_cmd; tpcc_cmd; kv_cmd; bank_cmd ]))
