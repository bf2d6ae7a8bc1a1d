open Farm_sim
open Farm_core
open Farm_workloads

(* Paper-scale engine benchmark (ROADMAP item 1).

   The paper's headline numbers come from a 90-machine cluster; every other
   experiment in this repo runs 6-12 machines because the protocol layers
   used to allocate per transaction. This bench tracks the trajectory that
   makes paper scale affordable: for each cluster size it runs the standard
   TATP mix with a fixed worker count per machine and records

     machines x host wall-clock x sim-tx/s x host-heap bytes/op

   into BENCH_engine_scaling.json, alongside the commit-path micro numbers
   (bytes allocated per committed transaction, measured over GC-quiet
   windows with Farm_obs.Allocmeter) whose pre-refactor value is kept in
   the JSON as the regression baseline.

   Modes (set by bench/main.exe global flags):
     --smoke                run only the small sizes with a short duration
                            (CI: every push)
     --check-baseline FILE  compare bytes/op against the checked-in JSON
                            and exit non-zero on a >= 20 % regression. *)

type row = {
  machines : int;
  workers_total : int;
  sim_ms : int;  (* measured window, simulated time *)
  host_s : float;  (* host wall-clock for the measured window *)
  ops : int;  (* successful TATP operations *)
  committed : int;  (* transactions through the commit protocol *)
  sim_tx_per_s : float;  (* ops per simulated second *)
  host_tx_per_s : float;  (* ops per host second: the engine's speed *)
  bytes_per_op : float;  (* host heap bytes allocated per TATP op *)
}

(* 128 KB regions and 1 MB logs, the sizes of the checked-in
   BENCH_engine_scaling.json rows; each table keeps ~10 MB of capacity,
   plenty for the subscriber counts used here. Neither size sets host
   memory any more: ring logs only account bytes, and region memory is
   paged on first write, so a fleet's heap follows the objects it stores.
   The sizes stay so that the rows remain comparable with that baseline. *)
let params () =
  { Params.default with Params.region_size = 1 lsl 17; log_size = 1 lsl 20 }

let run_size ~machines ~workers_per_machine ~subscribers ~duration =
  let c = Cluster.create ~params:(params ()) ~machines () in
  let regions_per_table = max 2 machines in
  let t = Tatp.create c ~subscribers ~regions_per_table in
  Tatp.load c t;
  let host0 = Unix.gettimeofday () in
  let stats, alloc_bytes, _clean =
    Farm_obs.Allocmeter.measure (fun () ->
        Driver.run c ~workers:workers_per_machine ~warmup:(Time.ms 2) ~duration
          ~op:(Tatp.op t))
  in
  let host1 = Unix.gettimeofday () in
  let ops = Stats.Counter.get stats.Driver.ops in
  let committed = Cluster.total_committed c in
  let sim_s = Time.to_us_float duration /. 1e6 in
  {
    machines;
    workers_total = machines * workers_per_machine;
    sim_ms = int_of_float (Time.to_ms_float duration);
    host_s = host1 -. host0;
    ops;
    committed;
    sim_tx_per_s = float_of_int ops /. sim_s;
    host_tx_per_s = float_of_int ops /. (host1 -. host0);
    bytes_per_op = alloc_bytes /. float_of_int (max 1 ops);
  }

(* {1 Commit-path micro measurement}

   Bytes of host heap allocated per committed read-write transaction,
   measured over a batch of two-object cross-machine update transactions on
   a 3-machine cluster — the narrow number the allocation budget in
   DESIGN.md governs. *)

let micro_commit_bytes () =
  Farm_obs.Allocmeter.with_quiet_heap (fun () ->
      let c = Cluster.create ~machines:3 () in
      let r1 = Cluster.alloc_region_exn c in
      let r2 = Cluster.alloc_region_exn c in
      let a, b =
        Cluster.run_on c ~machine:0 (fun st ->
            match
              Api.run st ~thread:0 (fun tx ->
                  let a = Txn.alloc tx ~size:16 ~region:r1.Wire.rid () in
                  let b = Txn.alloc tx ~size:16 ~region:r2.Wire.rid () in
                  (a, b))
            with
            | Ok v -> v
            | Error e ->
                Fmt.failwith "engine_scaling: setup tx failed: %a" Txn.pp_abort e)
      in
      let payload = Bytes.make 16 'x' in
      let batch st n =
        for _ = 1 to n do
          match
            Api.run st ~thread:0 (fun tx ->
                ignore (Txn.read tx a ~len:16);
                Txn.write tx a payload;
                Txn.write tx b payload)
          with
          | Ok () -> ()
          | Error e ->
              Fmt.failwith "engine_scaling: micro tx failed: %a" Txn.pp_abort e
        done
      in
      let n = 512 in
      (* One engine pump per attempt: warm-up batch, then the measured
         batch inside a single GC-quiet window.  The measurement runs
         entirely inside [run_on] so background machinery (leases, log
         flushers) is charged to the transactions it serves, exactly as
         at scale. *)
      let rec attempt tries =
        let bytes_per_tx =
          Cluster.run_on c ~machine:0 (fun st ->
              batch st 32;
              let (), bytes, clean =
                Farm_obs.Allocmeter.measure (fun () -> batch st n)
              in
              if clean then Some (bytes /. float_of_int n) else None)
        in
        match bytes_per_tx with
        | Some v -> v
        | None when tries > 0 -> attempt (tries - 1)
        | None -> Fmt.failwith "engine_scaling: no GC-quiet micro window"
      in
      attempt 3)

(* {1 JSON} *)

let json_of_row r =
  Printf.sprintf
    "    { \"machines\": %d, \"workers_total\": %d, \"sim_ms\": %d, \
     \"host_s\": %.2f, \"ops\": %d, \"committed\": %d, \"sim_tx_per_s\": \
     %.0f, \"host_tx_per_s\": %.0f, \"bytes_per_op\": %.0f }"
    r.machines r.workers_total r.sim_ms r.host_s r.ops r.committed r.sim_tx_per_s
    r.host_tx_per_s r.bytes_per_op

(* The pre-refactor commit-path number, measured on the allocating pipeline
   (fresh hashtables, cons-lists and polymorphic sorts per commit) at the
   seed of this PR; kept as a constant so the ratio in the JSON and the CI
   budget check both refer to a fixed anchor. *)
let pre_refactor_micro_bytes_per_tx = 36_679.

let json ~smoke ~micro_bytes rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"bench\": \"engine_scaling\",\n";
  Buffer.add_string b (Printf.sprintf "  \"smoke\": %b,\n" smoke);
  Buffer.add_string b
    (Printf.sprintf
       "  \"micro_commit\": { \"pre_refactor_bytes_per_tx\": %.0f, \
        \"bytes_per_tx\": %.0f, \"reduction_x\": %.1f },\n"
       pre_refactor_micro_bytes_per_tx micro_bytes
       (pre_refactor_micro_bytes_per_tx /. micro_bytes));
  Buffer.add_string b "  \"rows\": [\n";
  Buffer.add_string b (String.concat ",\n" (List.map json_of_row rows));
  Buffer.add_string b "\n  ]\n}";
  Buffer.contents b

(* {1 Baseline regression check (CI)}

   Reads bytes-per-op numbers out of the checked-in JSON with a tolerant
   scan: for every "machines": N ... "bytes_per_op": X pair, a fresh
   measurement at the same cluster size must stay under 1.2x X. *)

let baseline_rows file =
  let ic = open_in file in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let out = ref [] in
  let re_num = Str.regexp {|"machines": \([0-9]+\)|} in
  let re_tx = Str.regexp {|"sim_tx_per_s": \([0-9.]+\)|} in
  let re_bytes = Str.regexp {|"bytes_per_op": \([0-9.]+\)|} in
  let pos = ref 0 in
  (try
     while true do
       let m = Str.search_forward re_num s !pos in
       let machines = int_of_string (Str.matched_group 1 s) in
       let tpos = Str.search_forward re_tx s m in
       let tx = float_of_string (Str.matched_group 1 s) in
       let bpos = Str.search_forward re_bytes s tpos in
       let bytes = float_of_string (Str.matched_group 1 s) in
       out := (machines, (tx, bytes)) :: !out;
       pos := bpos + 1
     done
   with Not_found -> ());
  List.rev !out

let baseline_micro file =
  let ic = open_in file in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  try
    let _ = Str.search_forward (Str.regexp {|"bytes_per_tx": \([0-9.]+\)|}) s 0 in
    Some (float_of_string (Str.matched_group 1 s))
  with Not_found -> None

let check_against ~baseline_file ~micro_bytes rows =
  let base = baseline_rows baseline_file in
  let failures = ref 0 in
  List.iter
    (fun r ->
      match List.assoc_opt r.machines base with
      | None -> ()
      | Some (tx_b, b) ->
          let limit = b *. 1.2 in
          if r.bytes_per_op > limit then begin
            incr failures;
            Fmt.pr
              "  REGRESSION: %d machines: %.0f bytes/op vs baseline %.0f (limit %.0f)@."
              r.machines r.bytes_per_op b limit
          end
          else
            Fmt.pr "  ok: %d machines: %.0f bytes/op (baseline %.0f, limit %.0f)@."
              r.machines r.bytes_per_op b limit;
          (* simulated commit throughput is a pure function of the seed, so
             a drop past the band means the protocol got slower, not noise *)
          let floor = tx_b /. 1.2 in
          if r.sim_tx_per_s < floor then begin
            incr failures;
            Fmt.pr
              "  REGRESSION: %d machines: %.3f commits/us vs baseline %.3f (floor %.3f)@."
              r.machines (r.sim_tx_per_s /. 1e6) (tx_b /. 1e6) (floor /. 1e6)
          end
          else
            Fmt.pr "  ok: %d machines: %.3f commits/us (baseline %.3f, floor %.3f)@."
              r.machines (r.sim_tx_per_s /. 1e6) (tx_b /. 1e6) (floor /. 1e6))
    rows;
  (match baseline_micro baseline_file with
  | Some b ->
      let limit = b *. 1.2 in
      if micro_bytes > limit then begin
        incr failures;
        Fmt.pr "  REGRESSION: commit micro: %.0f bytes/tx vs baseline %.0f (limit %.0f)@."
          micro_bytes b limit
      end
      else
        Fmt.pr "  ok: commit micro: %.0f bytes/tx (baseline %.0f, limit %.0f)@."
          micro_bytes b limit
  | None -> ());
  !failures = 0

(* {1 Entry point} *)

let run ?(smoke = false) ?check_baseline () =
  Bench_util.header "engine scaling — TATP at paper scale"
    "90 machines, Fig 7/9/13 cluster size; tracks engine speed and bytes/op";
  let sizes =
    (* (machines, workers_per_machine, subscribers, duration) *)
    if smoke then [ (3, 12, 2_000, Time.ms 40); (9, 12, 4_000, Time.ms 25) ]
    else
      [
        (3, 12, 2_000, Time.ms 60);
        (9, 12, 4_000, Time.ms 40);
        (30, 12, 6_000, Time.ms 25);
        (60, 12, 8_000, Time.ms 20);
        (90, 12, 10_000, Time.ms 20);
      ]
  in
  let micro_bytes = micro_commit_bytes () in
  Fmt.pr "commit micro: %.0f bytes/tx (pre-refactor %.0f, %.1fx reduction)@."
    micro_bytes pre_refactor_micro_bytes_per_tx
    (pre_refactor_micro_bytes_per_tx /. micro_bytes);
  let rows =
    Farm_obs.Allocmeter.with_quiet_heap @@ fun () ->
    List.map
      (fun (machines, workers_per_machine, subscribers, duration) ->
        let r = run_size ~machines ~workers_per_machine ~subscribers ~duration in
        Fmt.pr
          "%2d machines %5d workers: %7d ops in %dms sim (%.2fs host) = %.1f \
           Mtx/s sim, %.0f tx/s host, %.0f bytes/op@."
          r.machines r.workers_total r.ops r.sim_ms r.host_s
          (r.sim_tx_per_s /. 1e6) r.host_tx_per_s r.bytes_per_op;
        r)
      sizes
  in
  (match check_baseline with
  | Some file ->
      Fmt.pr "@.checking against baseline %s (fail at +20%%):@." file;
      if not (check_against ~baseline_file:file ~micro_bytes rows) then begin
        Fmt.epr "engine_scaling: bytes/op regression against %s@." file;
        exit 1
      end
  | None ->
      let json = json ~smoke ~micro_bytes rows in
      let oc = open_out "BENCH_engine_scaling.json" in
      output_string oc (json ^ "\n");
      close_out oc;
      Fmt.pr "wrote BENCH_engine_scaling.json@.")
