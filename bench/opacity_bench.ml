open Farm_sim
open Farm_core
open Farm_workloads
open Farm_harness

(* Protocol ablation: validate-at-commit baseline vs the snapshot (opacity
   via global time) protocol, on contended YCSB-B/C-shaped transaction
   mixes.

   The workload is deliberately hot: a small zipfian cell set shared by
   every worker, read in multi-object read-only transactions (4 cells) with
   an update fraction doing read-modify-write on 2 cells (B: 5 % updates,
   C: read-only). Under the baseline, every multi-object read-only
   transaction pays a VALIDATE round and aborts when a writer slips a
   version past it; under the snapshot protocol the same transaction reads
   at its global-time snapshot and commits locally — zero VALIDATE
   messages, zero read-only aborts, at the price of the writers'
   uncertainty wait (the commit-wait phase).

   Reported per (profile, mode): throughput, latency, the abort-cause
   split (lock-refused / validate-failed / timeout / other), read-only
   attempt/abort counts, the VALIDATE- and commit-wait-phase histograms,
   and the snapshot counters (local-commit, snapshot reads, chain reads,
   watermark trims). Emits BENCH_opacity.json. *)

let regions = 4
let cells = 256 (* total, across all regions: a contended hot set *)
let ro_reads = 4
let rw_writes = 2

type mode_result = {
  label : string;
  profile : string;
  commits_per_us : float;
  latency : Bench_util.digest;
  committed : int;
  failed : int;
  ro_attempts : int;
  ro_aborts : int;
  abort_causes : (string * int) list;
  validate : Bench_util.digest;  (* VALIDATE phase of committed transactions *)
  commit_wait : Bench_util.digest;  (* snapshot protocol's uncertainty wait *)
  ro_commits : int;  (* read-only transactions committed locally *)
  snap_reads : int;
  snap_chain_reads : int;
  wm_trims : int;
}

let phase_digest (c : Cluster.t) name =
  Bench_util.digest_of
    (Option.value (List.assoc_opt name (Cluster.merged_phase_hists c))
       ~default:(Stats.Hist.create ()))

let run_mode ~snapshot ~update_pct ~profile ~machines ~workers ~duration =
  let protocol = if snapshot then Params.Snapshot else Params.Validate_at_commit in
  let params = { Params.default with Params.protocol } in
  let c = Cluster.create ~seed:42 ~params ~machines () in
  let rs = Array.init regions (fun _ -> Cluster.alloc_region_exn c) in
  let addrs =
    Cluster.run_on c ~machine:0 (fun st ->
        match
          Api.run_retry st ~thread:0 (fun tx ->
              Array.init cells (fun i ->
                  let r = rs.(i mod regions) in
                  let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
                  Txn.write tx a (Bytes.make 8 '\000');
                  a))
        with
        | Ok arr -> arr
        | Error e -> Fmt.failwith "opacity setup: %a" Txn.pp_abort e)
  in
  let ro_attempts = ref 0 and ro_aborts = ref 0 in
  let op (ctx : Driver.worker_ctx) =
    let rng = ctx.Driver.rng in
    let ro = Rng.int rng 100 >= update_pct in
    if ro then incr ro_attempts;
    let ok =
      match
        Api.run ctx.Driver.st ~thread:ctx.Driver.thread (fun tx ->
            if ro then
              for _ = 1 to ro_reads do
                ignore (Txn.read tx addrs.(Ycsb.zipf rng cells) ~len:8)
              done
            else
              for _ = 1 to rw_writes do
                let a = addrs.(Ycsb.zipf rng cells) in
                let v = Int64.to_int (Bytes.get_int64_le (Txn.read tx a ~len:8) 0) in
                let b = Bytes.create 8 in
                Bytes.set_int64_le b 0 (Int64.of_int (v + 1));
                Txn.write tx a b
              done)
      with
      | Ok () -> true
      | Error _ -> false
    in
    if ro && not ok then incr ro_aborts;
    ok
  in
  let stats = Driver.run c ~workers ~warmup:(Time.ms 5) ~duration ~op in
  {
    label = (if snapshot then "snapshot" else "baseline");
    profile;
    commits_per_us = Driver.throughput_per_us stats ~duration;
    latency = Bench_util.digest_of stats.Driver.latency;
    committed = Stats.Counter.get stats.Driver.ops;
    failed = Stats.Counter.get stats.Driver.failures;
    ro_attempts = !ro_attempts;
    ro_aborts = !ro_aborts;
    abort_causes = Cluster.abort_breakdown c;
    validate = phase_digest c "validate";
    commit_wait = phase_digest c "commit-wait";
    ro_commits = Cluster.merged_counter c Farm_obs.Obs.C_ro_commit;
    snap_reads = Cluster.merged_counter c Farm_obs.Obs.C_snap_read;
    snap_chain_reads = Cluster.merged_counter c Farm_obs.Obs.C_snap_chain_read;
    wm_trims = Cluster.merged_counter c Farm_obs.Obs.C_wm_trim;
  }

let digest_json (d : Bench_util.digest) =
  Bench_util.(
    Json.Obj
      [
        ("count", int d.count);
        ("p50_us", fixed 2 d.p50);
        ("p99_us", fixed 2 d.p99);
        ("mean_us", fixed 2 d.mean);
      ])

let json_report ~machines ~workers ~duration results =
  let open Bench_util in
  let mode m =
    Json.Obj
      [
        ("profile", Json.Str m.profile);
        ("mode", Json.Str m.label);
        ("commits_per_us", fixed 4 m.commits_per_us);
        ("latency", digest_json m.latency);
        ("committed", int m.committed);
        ("failed", int m.failed);
        ("ro_attempts", int m.ro_attempts);
        ("ro_aborts", int m.ro_aborts);
        ("abort_causes", obj_of int m.abort_causes);
        ("validate_phase", digest_json m.validate);
        ("commit_wait_phase", digest_json m.commit_wait);
        ("ro_commits", int m.ro_commits);
        ("snap_reads", int m.snap_reads);
        ("snap_chain_reads", int m.snap_chain_reads);
        ("wm_trims", int m.wm_trims);
      ]
  in
  Json.Obj
    [
      ("bench", Json.Str "opacity");
      ( "config",
        Json.Obj
          [
            ("machines", int machines);
            ("workers_per_machine", int workers);
            ("duration_ms", int (ms_of duration));
            ("cells", int cells);
            ("regions", int regions);
            ("ro_reads", int ro_reads);
            ("rw_writes", int rw_writes);
          ] );
      ("runs", Json.Arr (List.map mode results));
    ]

let run ?(machines = 6) ?(workers = 8) ?(duration = Time.ms 30) () =
  Bench_util.header "Opacity ablation: validate-at-commit vs snapshot reads (FaRMv2)"
    "multi-object read-only transactions on a contended zipfian set: the \
     baseline pays VALIDATE and aborts on racing writers; the snapshot \
     protocol reads at global time and commits read-only work locally";
  let results =
    List.concat_map
      (fun (profile, update_pct) ->
        List.map
          (fun snapshot ->
            run_mode ~snapshot ~update_pct ~profile ~machines ~workers ~duration)
          [ false; true ])
      [ ("ycsb-b", 5); ("ycsb-c", 0) ]
  in
  Fmt.pr "%-8s %-10s %11s %9s %9s %9s %9s %10s %10s@." "profile" "mode" "commits/us"
    "p50(us)" "p99(us)" "ro-tx" "ro-abort" "validate#" "ro-local#";
  List.iter
    (fun m ->
      Fmt.pr "%-8s %-10s %11.3f %9.1f %9.1f %9d %9d %10d %10d@." m.profile m.label
        m.commits_per_us m.latency.p50 m.latency.p99 m.ro_attempts m.ro_aborts
        m.validate.count m.ro_commits)
    results;
  Fmt.pr "@.abort-cause split:@.";
  List.iter
    (fun m ->
      Fmt.pr "  %-8s %-10s %a@." m.profile m.label
        Fmt.(list ~sep:(any "  ") (pair ~sep:(any "=") string int))
        m.abort_causes)
    results;
  Fmt.pr "@.VALIDATE / commit-wait phases (committed tx, merged over machines):@.";
  List.iter
    (fun m ->
      Fmt.pr "  %-8s %-10s validate: n=%-7d mean %6.1fus   commit-wait: n=%-7d mean %6.1fus@."
        m.profile m.label m.validate.count m.validate.mean m.commit_wait.count
        m.commit_wait.mean)
    results;
  (* the headline invariants, checked here so a regression fails the bench
     run loudly, not just quietly skews a figure *)
  List.iter
    (fun m ->
      if m.label = "snapshot" then begin
        if m.ro_aborts <> 0 then
          Fmt.failwith "opacity: %d read-only aborts under the snapshot protocol (%s)"
            m.ro_aborts m.profile;
        if m.validate.count <> 0 then
          Fmt.failwith "opacity: %d VALIDATE phases under the snapshot protocol (%s)"
            m.validate.count m.profile
      end)
    results;
  Fmt.pr "@.snapshot invariants: zero read-only aborts, zero VALIDATE phases — ok@.";
  Bench_util.write_json "BENCH_opacity.json"
    (json_report ~machines ~workers ~duration results)
