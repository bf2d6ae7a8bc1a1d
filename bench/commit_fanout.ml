open Farm_sim
open Farm_core
open Farm_workloads
open Farm_harness

(* The high-fan-out commit figure: every phase of a wide commit rings the
   NIC once (one doorbell-batched verb group, see Logio.append_prepared).

   A multi-participant mix in the TATP/YCSB-F mould: every transaction
   touches one cell in each of [spread] regions spread over the cluster —
   80 % read-modify-write (the full LOCK / COMMIT-BACKUP / COMMIT-PRIMARY
   pipeline against every distinct primary and backup machine), 20 %
   multi-region read-only (batched VALIDATE header reads only). Replication
   is raised to 5 so the per-transaction backup set spans the whole
   cluster: commit CPU is then dominated by per-participant verb issue,
   which is what doorbell batching amortizes. Run at a saturating worker
   count.

   Emits BENCH_commit_fanout.json, which CI regenerates and byte-checks. *)

let spread = 8
let cells_per_region = 32768
let replication = 5

type outcome = {
  commits_per_us : float;
  latency : Bench_util.digest;
  committed : int;
  failed : int;
  phases : (string * Bench_util.digest) list;  (* committed tx only *)
}

let run_fanout ~machines ~workers ~duration =
  let params = { Params.default with Params.replication; region_size = 1 lsl 21 } in
  let c = Cluster.create ~seed:42 ~params ~machines () in
  let regions = Array.init spread (fun _ -> Cluster.alloc_region_exn c) in
  let chunk = 256 in
  let addrs =
    Cluster.run_on c ~machine:0 (fun st ->
        Array.map
          (fun (r : Wire.region_info) ->
            Array.init (cells_per_region / chunk) (fun _ ->
                match
                  Api.run_retry st ~thread:0 (fun tx ->
                      Array.init chunk (fun _ ->
                          let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
                          Txn.write tx a (Bytes.make 8 '\000');
                          a))
                with
                | Ok arr -> arr
                | Error e -> Fmt.failwith "commit_fanout setup: %a" Txn.pp_abort e)
            |> Array.to_list |> Array.concat)
          regions)
  in
  let op (ctx : Driver.worker_ctx) =
    let rng = ctx.Driver.rng in
    let ro = Rng.int rng 100 < 20 in
    match
      Api.run ctx.Driver.st ~thread:ctx.Driver.thread (fun tx ->
          Array.iter
            (fun per_region ->
              let a = per_region.(Rng.int rng cells_per_region) in
              let v = Int64.to_int (Bytes.get_int64_le (Txn.read tx a ~len:8) 0) in
              if not ro then begin
                let b = Bytes.create 8 in
                Bytes.set_int64_le b 0 (Int64.of_int (v + 1));
                Txn.write tx a b
              end)
            addrs)
    with
    | Ok () -> true
    | Error _ -> false
  in
  let stats = Driver.run c ~workers ~warmup:(Time.ms 5) ~duration ~op in
  let phases =
    List.map (fun (name, h) -> (name, Bench_util.digest_of h)) (Cluster.merged_phase_hists c)
  in
  {
    commits_per_us = Driver.throughput_per_us stats ~duration;
    latency = Bench_util.digest_of stats.Driver.latency;
    committed = Stats.Counter.get stats.Driver.ops;
    failed = Stats.Counter.get stats.Driver.failures;
    phases;
  }

let digest_fields (d : Bench_util.digest) =
  Bench_util.
    [
      ("count", int d.count);
      ("p50_us", fixed 2 d.p50);
      ("p90_us", fixed 2 d.p90);
      ("p99_us", fixed 2 d.p99);
      ("p999_us", fixed 2 d.p999);
      ("max_us", fixed 2 d.max);
      ("mean_us", fixed 2 d.mean);
    ]

let json_report ~machines ~workers ~duration r =
  let open Bench_util in
  Json.Obj
    ([
       ("bench", Json.Str "commit_fanout");
       ( "config",
         Json.Obj
           [
             ("machines", int machines);
             ("workers_per_machine", int workers);
             ("duration_ms", int (ms_of duration));
             ("regions_per_tx", int spread);
             ("replication", int replication);
           ] );
       ("commits_per_us", fixed 4 r.commits_per_us);
     ]
    @ digest_fields r.latency
    @ [
        ("committed", int r.committed);
        ("failed", int r.failed);
        ("phases", obj_of (fun d -> Json.Obj (digest_fields d)) r.phases);
      ])

let run ?(machines = 12) ?(workers = 256) ?(duration = Time.ms 30) () =
  Bench_util.header "High-fan-out commit (doorbell-batched one-sided verbs)"
    "Storm / FaRMv2 argument: batched verb issue and completion reaping move \
     multi-participant commits from verb-rate-bound to CPU-bound; each phase \
     rings the NIC once instead of once per participant";
  let r = run_fanout ~machines ~workers ~duration in
  Fmt.pr "%14s %10s %10s %10s %10s %10s %10s@." "commits/us" "p50(us)" "p90(us)" "p99(us)"
    "p999(us)" "max(us)" "committed";
  Fmt.pr "%14.3f %10.1f %10.1f %10.1f %10.1f %10.1f %10d@." r.commits_per_us r.latency.p50
    r.latency.p90 r.latency.p99 r.latency.p999 r.latency.max r.committed;
  Fmt.pr "@.commit-latency phase breakdown (committed tx, merged over machines):@.";
  Fmt.pr "%-16s %10s %10s %10s %10s %10s %10s %10s@." "phase" "count" "p50(us)" "p90(us)"
    "p99(us)" "p999(us)" "max(us)" "mean(us)";
  List.iter
    (fun (name, (d : Bench_util.digest)) ->
      Fmt.pr "%-16s %10d %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f@." name d.count d.p50 d.p90
        d.p99 d.p999 d.max d.mean)
    r.phases;
  Bench_util.write_json "BENCH_commit_fanout.json" (json_report ~machines ~workers ~duration r)
