open Farm_sim
open Farm_core
open Farm_workloads

(* Ablations of the design choices DESIGN.md calls out:

   - the §6.4 suggested optimization (machines maintain CM-only state
     incrementally, removing the new-CM rebuild that dominates Figure 11);
   - the tr threshold that switches read validation from one-sided RDMA
     reads to RPC (§4 step 2);
   - the replication factor f, which sets the commit protocol's write
     fan-out Pw * (f + 3) (§4). *)

(* {1 Ablation 1: incremental CM state (§6.4)} *)

let cm_rebuild () =
  Bench_util.header "Ablation — incremental CM-state maintenance (§6.4)"
    "the paper attributes ~80 ms of the CM-failure recovery to the new CM \
     rebuilding CM-only data structures and suggests maintaining them \
     incrementally on every machine";
  let run ~incremental =
    let o =
      Failure_bench.run
        {
          Failure_bench.default_spec with
          label = "";
          quiet = true;
          params =
            {
              Failure_bench.default_spec.Failure_bench.params with
              Params.incremental_cm_state = incremental;
            };
          workload = Failure_bench.Wl_tatp 1_500;
          victim = Failure_bench.Kill_cm;
          measure_for = Time.ms 300;
          data_rec_limit = Time.ms 1;
        }
    in
    let commit_at =
      List.assoc_opt "config-commit" o.Failure_bench.milestones
    in
    (commit_at, o.Failure_bench.recovery_80)
  in
  let report name (commit_at, rec80) =
    Fmt.pr "  %-28s reconfiguration %-12s recovery to 80%% %s@." name
      (match commit_at with Some t -> Fmt.str "%a" Time.pp t | None -> "-")
      (match rec80 with Some t -> Fmt.str "%a" Time.pp t | None -> "(not in window)")
  in
  (* the two settings are independent clusters: shard them *)
  match Bench_util.shard_map (fun incremental -> run ~incremental) [ false; true ] with
  | [ baseline; incr ] ->
      report "baseline (rebuild)" baseline;
      report "incremental CM state" incr
  | _ -> assert false

(* {1 Ablation 2: the validation threshold tr} *)

(* A read-heavy transaction profile: read [reads] objects from one primary,
   write one object elsewhere, so commit needs read validation for all of
   them. Sweeping tr shows the RDMA-vs-RPC validation tradeoff. *)
let validation_threshold () =
  Bench_util.header "Ablation — read-validation threshold tr (§4)"
    "validation uses one-sided RDMA reads for <= tr objects per primary and \
     one RPC above it (paper default tr = 4): RDMA spends caller CPU and \
     NIC ops per object; RPC spends one round trip plus remote CPU";
  let reads = 8 in
  Fmt.pr "per-commit: %d validated reads from one primary + 1 write@.@." reads;
  Fmt.pr "%-14s %12s %14s %14s@." "tr" "tx/us" "median(us)" "99th(us)";
  Bench_util.shard_print
    (fun tr ->
      let params = { Params.default with Params.validate_rpc_threshold = tr } in
      let c = Cluster.create ~params ~machines:4 () in
      let r1 = Cluster.alloc_region_exn c in
      let r2 = Cluster.alloc_region_exn c in
      let read_cells =
        Cluster.run_on c ~machine:0 (fun st ->
            match
              Api.run_retry st ~thread:0 (fun tx ->
                  Array.init reads (fun _ -> Txn.alloc tx ~size:8 ~region:r1.Wire.rid ()))
            with
            | Ok a -> a
            | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
      in
      let write_cells =
        Cluster.run_on c ~machine:0 (fun st ->
            match
              Api.run_retry st ~thread:0 (fun tx ->
                  Array.init 64 (fun _ ->
                      let a = Txn.alloc tx ~size:8 ~region:r2.Wire.rid () in
                      Txn.write tx a (Bytes.make 8 '\000');
                      a))
            with
            | Ok a -> a
            | Error e -> Fmt.failwith "%a" Txn.pp_abort e)
      in
      let duration = Time.ms 30 in
      let stats =
        Driver.run c ~workers:6 ~warmup:(Time.ms 5) ~duration ~op:(fun ctx ->
            let st = ctx.Driver.st in
            match
              Api.run_retry ~attempts:8 st ~thread:ctx.Driver.thread (fun tx ->
                  Array.iter (fun a -> ignore (Txn.read tx a ~len:8)) read_cells;
                  let w = write_cells.(Rng.int ctx.Driver.rng 64) in
                  Txn.write tx w (Bytes.make 8 'x'))
            with
            | Ok () -> true
            | Error _ -> false)
      in
      Fmt.str "%-14s %12.3f %14.1f %14.1f@."
        (if tr = 0 then "0 (always RPC)"
         else if tr >= reads then Printf.sprintf "%d (all RDMA)" tr
         else string_of_int tr)
        (Driver.throughput_per_us stats ~duration)
        (float_of_int (Stats.Hist.percentile stats.Driver.latency 50.) /. 1e3)
        (float_of_int (Stats.Hist.percentile stats.Driver.latency 99.) /. 1e3))
    [ 0; 4; 16 ]

(* {1 Ablation 3: replication factor} *)

let replication_factor () =
  Bench_util.header "Ablation — replication factor f (§4)"
    "the commit phase costs Pw*(f+3) one-sided writes; FaRM runs f+1 copies \
     vs 2f+1 for Paxos-replicated designs like Spanner";
  Fmt.pr "%-8s %12s %14s %16s@." "f" "tx/us" "median(us)" "commit 99th(us)";
  Bench_util.shard_print
    (fun replication ->
      let params = { Params.default with Params.replication = replication } in
      let c = Cluster.create ~params ~machines:6 () in
      let t = Tatp.create c ~subscribers:1_500 ~regions_per_table:2 in
      Tatp.load c t;
      let duration = Time.ms 40 in
      let stats = Driver.run c ~workers:8 ~warmup:(Time.ms 5) ~duration ~op:(Tatp.op t) in
      let commit_h = Cluster.merged_latency c in
      Fmt.str "%-8d %12.3f %14.1f %16.1f@." (replication - 1)
        (Driver.throughput_per_us stats ~duration)
        (float_of_int (Stats.Hist.percentile stats.Driver.latency 50.) /. 1e3)
        (float_of_int (Stats.Hist.percentile commit_h 99.) /. 1e3))
    [ 1; 2; 3 ]

(* {1 Ablation 4: two-level lease hierarchy (§5.1 future work)} *)

let lease_hierarchy () =
  Bench_util.header "Ablation — two-level lease hierarchy (§5.1)"
    "the paper notes larger clusters may need a two-level hierarchy, at the \
     price of up to doubled failure detection; CM lease traffic drops from \
     O(n) to O(n / group size)";
  Fmt.pr "%-10s %22s %22s@." "machines" "CM lease msgs (flat)" "CM lease msgs (groups of 4)";
  Bench_util.shard_print
    (fun machines ->
      let run params =
        let c = Cluster.create ~params ~machines () in
        Cluster.run_for c ~d:(Time.ms 200);
        (Cluster.machine c 0).State.lease.State.grantor_messages
      in
      let flat = run Params.default in
      let hier = run { Params.default with Params.lease_group_size = 4 } in
      Fmt.str "%-10d %22d %22d@." machines flat hier)
    [ 8; 16; 32 ];
  (* detection latency comparison for a member failure *)
  let detect params =
    let c = Cluster.create ~params ~machines:16 () in
    ignore (Cluster.alloc_region_exn c);
    Cluster.run_for c ~d:(Time.ms 20);
    let at = Cluster.now c in
    Cluster.kill c 6 (* a non-leader member *);
    Cluster.run_for c ~d:(Time.ms 100);
    match Cluster.milestone_time c "suspect" with
    | Some t -> Time.to_ms_float (Time.sub t at)
    | None -> nan
  in
  match
    Bench_util.shard_map detect
      [ Params.default; { Params.default with Params.lease_group_size = 4 } ]
  with
  | [ flat; hier ] ->
      Fmt.pr "@.member-failure detection latency (lease 10 ms): flat %.1f ms vs \
         hierarchical %.1f ms@."
        flat hier
  | _ -> assert false

let run () =
  cm_rebuild ();
  validation_threshold ();
  replication_factor ();
  lease_hierarchy ()
