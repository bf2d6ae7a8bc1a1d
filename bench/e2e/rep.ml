open Farm_sim
open Farm_core
open Farm_workloads
module Obs = Farm_obs.Obs

(* One repetition of one workload, run in its own process: set up a fresh
   cluster, run the closed loop once, settle, quiesce and check. Every
   layer is measured from outside: host time around calls into public
   functions, and deltas of public counters around [Driver.run].

   A metric is [exact] when it is a function of the seed alone (simulated
   time and counts): every repetition of a run must then report it
   identically, traced or not. The others are host measurements, taken as
   this process's CPU time (user + system), which the machine's other
   tenants disturb far less than wall-clock time. *)

type metric = { name : string; value : float; unit_ : string; exact : bool }

type result = { gates : string list; attempted : int; metrics : metric list }

let cpu_s = Sys.time

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Nearest-rank percentile of a sorted sample. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. fi n)) - 1)))

(* Cluster-wide totals of every protocol counter, indexed like
   [Obs.all_counters]. *)
let counters c =
  Array.of_list
    (List.map
       (fun k -> Array.fold_left (fun acc st -> acc + Obs.counter st.State.obs k) 0 c.Cluster.machines)
       Obs.all_counters)

let counter_index k =
  let rec go i = function
    | [] -> invalid_arg "counter_index"
    | x :: rest -> if x = k then i else go (i + 1) rest
  in
  go 0 Obs.all_counters

let nic_bytes c =
  let n = ref 0 in
  for m = 0 to Cluster.n_machines c - 1 do
    n := !n + Farm_net.Nic.bytes_total (Farm_net.Fabric.nic c.Cluster.fabric m)
  done;
  !n

let cpu_busy c =
  Array.fold_left (fun acc st -> acc + Time.to_ns (Cpu.busy_total st.State.cpu)) 0 c.Cluster.machines

(* A growable array of latency samples (ns). *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s
end

let run (w : Workloads.t) ~seed ~traced =
  (* set-up: create + load, [setup_reps] times; the last cluster runs *)
  let setup () =
    let t0 = cpu_s () in
    let c = Cluster.create ~seed ~params:w.params ~machines:w.machines () in
    let t1 = cpu_s () in
    let inst = w.load c in
    let t2 = cpu_s () in
    (c, inst, t1 -. t0, t2 -. t1)
  in
  let rec setups k times =
    let ((_, _, create_s, load_s) as s) = setup () in
    let times = (create_s, load_s) :: times in
    if k <= 1 then (s, times) else setups (k - 1) times
  in
  let (c, inst, _, _), times = setups w.setup_reps [] in
  let setup_s = median (List.map (fun (a, b) -> a +. b) times) in
  if traced then begin
    Cluster.set_tracing c true;
    Cluster.set_blame c true
  end;
  let engine = c.Cluster.engine in
  let start = Cluster.now c in
  let measure_from = Time.add start w.warmup in
  let stop = Time.add measure_from w.window in
  inst.Workloads.arm ~start ~stop;
  (* the operation, wrapped: exact latencies of the measured window, all
     completions for per-op ratios, and a 1 ms sampler of the event-heap
     depth that reads the engine without scheduling anything *)
  let done_ops = ref 0 and done_ok = ref 0 in
  let win_attempts = ref 0 in
  let lat = Samples.create () in
  let pending_max = ref 0 and next_sample = ref start in
  let op ctx =
    let t0 = Engine.now engine in
    let ok = inst.Workloads.op ctx in
    let t1 = Engine.now engine in
    incr done_ops;
    if ok then incr done_ok;
    if Time.( >= ) t1 measure_from && Time.( < ) t1 stop then begin
      incr win_attempts;
      if ok then Samples.add lat (Time.to_ns (Time.sub t1 t0))
    end;
    if Time.( >= ) t1 !next_sample then begin
      pending_max := max !pending_max (Engine.pending engine);
      next_sample := Time.add t1 (Time.ms 1)
    end;
    ok
  in
  let k0 = counters c and nic0 = nic_bytes c and busy0 = cpu_busy c in
  let ev0 = Engine.events_processed engine in
  let gc0 = Gc.quick_stat () and alloc0 = Gc.allocated_bytes () in
  let h0 = cpu_s () in
  ignore (Driver.run c ~workers:w.workers ~warmup:w.warmup ~duration:w.window ~op);
  let h1 = cpu_s () in
  let alloc1 = Gc.allocated_bytes () and gc1 = Gc.quick_stat () in
  let ev1 = Engine.events_processed engine in
  let k1 = counters c and nic1 = nic_bytes c and busy1 = cpu_busy c in
  let sim_end = Cluster.now c in
  let phases = Cluster.phase_totals c and blames = Cluster.blame_totals c in
  inst.Workloads.settle ();
  let q0 = cpu_s () in
  let settled = Cluster.quiesce c in
  (* as the fault explorer does: let lazy truncation converge the backups
     before comparing them with their primaries *)
  Cluster.run_for c ~d:(Time.ms 60);
  let quiesce_s = cpu_s () -. q0 in
  let k2 = counters c in
  let invariants = Farm_fault.Invariant.check c in
  let workload_fails = inst.Workloads.check () in
  let peak_heap_mb = fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. in
  (* derived numbers *)
  let run_s = h1 -. h0 in
  let ops = fi !done_ops in
  let d k = fi (k1.(counter_index k) - k0.(counter_index k)) in
  let d_end k = fi (k2.(counter_index k) - k0.(counter_index k)) in
  let per_op k = d k /. ops in
  let events = fi (ev1 - ev0) in
  let run_sim_ns = fi (Time.to_ns (Time.sub sim_end start)) in
  let run_sim_ms = run_sim_ns /. 1e6 in
  let commits = d Obs.C_tx_commit and aborts = d Obs.C_tx_abort in
  let per_ktx k = ratio (1000. *. d k) (commits +. aborts) in
  let sorted = Samples.sorted lat in
  let samples = Array.length sorted in
  let pct p = fi (percentile sorted p) /. 1e3 in
  (* mean of the slowest 1%: unlike a single percentile it does not jump
     between the modes of TATP's many-peaked latency distribution *)
  let tail_us =
    let k = max 1 (samples / 100) in
    let s = ref 0 in
    for i = samples - k to samples - 1 do
      s := !s + sorted.(i)
    done;
    if samples = 0 then 0. else fi !s /. fi k /. 1e3
  in
  let recovery = Workloads.recovery c ~from:start in
  let since tag =
    match recovery with
    | Some r -> Option.value ~default:0. (r.Workloads.since tag)
    | None -> 0.
  in
  let stage_p50 name =
    match List.assoc_opt name (Cluster.merged_stage_hists c) with
    | Some h -> fi (Stats.Hist.percentile h 50.) /. 1e3
    | None -> 0.
  in
  let host name value unit_ = { name; value; unit_; exact = false } in
  let sim name value unit_ = { name; value; unit_; exact = true } in
  (* traced: exact commit-phase and blame ns per committed transaction;
     blame (admission aside) must account for the phase totals exactly *)
  let traced_metrics, traced_gates =
    if not traced then ([], [])
    else
      let per_tx l names prefix =
        List.map
          (fun n ->
            let v = fi (Option.value ~default:0 (List.assoc_opt n l)) in
            sim (Printf.sprintf "%s.%s_ns_per_tx" prefix n) (ratio v commits) "sim_ns/tx")
          names
      in
      let sum l = List.fold_left (fun a (_, v) -> a + v) 0 l in
      let blamed = sum (List.filter (fun (n, _) -> n <> "admission") blames) in
      ( per_tx phases (List.map Obs.phase_name Obs.all_phases) "commit.phase"
        @ per_tx blames (List.map Obs.blame_name Obs.all_blames) "blame",
        if blamed = sum phases then []
        else
          [ Printf.sprintf "%s: blame sums to %d ns, phases to %d ns" w.name blamed (sum phases) ] )
  in
  let window_us = Time.to_us_float w.window in
  let metrics =
    [
      (* end to end *)
      host "setup_s" setup_s "s";
      host "host_ops_per_s" (fi !done_ok /. run_s) "ops/s";
      host "peak_heap_mb" peak_heap_mb "MB";
      sim "sim_ops_per_us" (fi samples /. window_us) "ops/sim_us";
      sim "sim_p50_us" (pct 50.) "sim_us";
      sim "sim_tail_us" tail_us "sim_us";
      sim "op_success_frac" (ratio (fi samples) (fi !win_attempts)) "fraction";
      (* host time of each public call *)
      host "core.create_s" (median (List.map fst times)) "s";
      host "workloads.load_s" (median (List.map snd times)) "s";
      host "workloads.run_s" run_s "s";
      host "core.quiesce_s" quiesce_s "s";
      (* sim: engine, heap, processes, CPU model *)
      sim "sim.latency_samples" (fi samples) "count";
      sim "sim.p99_us" (pct 99.) "sim_us";
      sim "sim.events_per_op" (events /. ops) "events/op";
      host "sim.host_ns_per_event" (run_s *. 1e9 /. events) "ns";
      sim "sim.pending_max" (fi !pending_max) "events";
      sim "sim.cpu_busy_frac"
        (fi (busy1 - busy0)
        /. (fi (w.machines * w.params.Params.threads_per_machine) *. run_sim_ns))
        "fraction";
      (* runtime: the OCaml GC *)
      host "runtime.alloc_bytes_per_op" ((alloc1 -. alloc0) /. ops) "B/op";
      host "runtime.minor_gcs_per_kop"
        (1000. *. fi (gc1.Gc.minor_collections - gc0.Gc.minor_collections) /. ops)
        "1/kop";
      host "runtime.major_gcs" (fi (gc1.Gc.major_collections - gc0.Gc.major_collections)) "count";
      (* net: fabric and NICs *)
      sim "net.rdma_read_per_op" (per_op Obs.C_rdma_read) "1/op";
      sim "net.rdma_write_per_op" (per_op Obs.C_rdma_write) "1/op";
      sim "net.rdma_batch_per_op" (per_op Obs.C_rdma_batch) "1/op";
      sim "net.rpc_per_op" ((d Obs.C_rpc_send +. d Obs.C_rpc_call) /. ops) "1/op";
      sim "net.ud_send_per_op" (per_op Obs.C_ud_send) "1/op";
      sim "net.retransmit_per_op" (per_op Obs.C_rc_retransmit) "1/op";
      sim "net.nic_bytes_per_op" (fi (nic1 - nic0) /. ops) "B/op";
      (* log: ring logs and their processing *)
      sim "log.append_per_op" (per_op Obs.C_log_append) "1/op";
      sim "log.trunc_per_op" (per_op Obs.C_log_trunc) "1/op";
      sim "log.append_fail_per_op" (per_op Obs.C_log_append_fail) "1/op";
      (* commit: the transaction protocol *)
      sim "commit.committed_frac" (ratio commits (commits +. aborts)) "fraction";
      sim "commit.abort.lock_refused_per_ktx" (per_ktx Obs.C_abort_lock_refused) "1/ktx";
      sim "commit.abort.validate_failed_per_ktx" (per_ktx Obs.C_abort_validate_failed) "1/ktx";
      sim "commit.abort.timeout_per_ktx" (per_ktx Obs.C_abort_timeout) "1/ktx";
      (* snap: version chains and the global-time clock *)
      sim "snap.ro_local_commit_frac" (ratio (d Obs.C_ro_commit) commits) "fraction";
      sim "snap.chain_reads_per_snap_read"
        (ratio (d Obs.C_snap_chain_read) (d Obs.C_snap_read))
        "fraction";
      sim "snap.wm_trims_per_ms" (d Obs.C_wm_trim /. run_sim_ms) "1/sim_ms";
      (* recovery, CM, membership and leases; 0 when nothing failed *)
      sim "recovery.suspect_ms" (since "suspect") "sim_ms";
      sim "recovery.config_commit_ms" (since "config-commit") "sim_ms";
      sim "recovery.all_active_ms" (since "all-active") "sim_ms";
      sim "recovery.data_rec_done_ms" (since "data-rec-done") "sim_ms";
      sim "recovery.to90_ms"
        (match recovery with
        | Some r -> Option.value ~default:0. r.Workloads.to90_ms
        | None -> 0.)
        "sim_ms";
      sim "recovery.stage.drain_p50_us" (stage_p50 "drain") "sim_us";
      sim "recovery.stage.region-active_p50_us" (stage_p50 "region-active") "sim_us";
      sim "recovery.stage.decide_p50_us" (stage_p50 "decide") "sim_us";
      sim "recovery.votes" (d_end Obs.C_rec_vote) "count";
      sim "recovery.decides" (d_end Obs.C_rec_decide) "count";
      sim "lease.expiries" (d_end Obs.C_lease_expiry) "count";
      sim "lease.renewals_per_ms" (d Obs.C_lease_renewal /. run_sim_ms) "1/sim_ms";
    ]
    @ traced_metrics
  in
  let gates =
    (if settled then [] else [ w.name ^ ": cluster did not quiesce" ])
    @ List.map (fun v -> Format.asprintf "%s: invariant %a" w.name Farm_fault.Invariant.pp v) invariants
    @ workload_fails @ traced_gates
    @
    (* the slowest 1% must hold at least 10 samples *)
    if samples >= 1000 then []
    else [ Printf.sprintf "%s: only %d latency samples" w.name samples ]
  in
  { gates; attempted = !win_attempts; metrics }

(* {1 Wire format between a repetition and its parent} *)

let to_json r =
  Json.Obj
    [
      ("gates", Json.Arr (List.map (fun g -> Json.Str g) r.gates));
      ("attempted", Json.Num (fi r.attempted));
      ( "metrics",
        Json.Arr
          (List.map
             (fun m ->
               Json.Obj
                 [
                   ("name", Json.Str m.name); ("value", Json.Num m.value);
                   ("unit", Json.Str m.unit_); ("exact", Json.Bool m.exact);
                 ])
             r.metrics) );
    ]

let of_json j =
  {
    gates = List.map Json.to_str (Json.to_list (Json.member "gates" j));
    attempted = int_of_float (Json.to_num (Json.member "attempted" j));
    metrics =
      List.map
        (fun m ->
          {
            name = Json.to_str (Json.member "name" m);
            value = Json.to_num (Json.member "value" m);
            unit_ = Json.to_str (Json.member "unit" m);
            exact = Json.to_bool (Json.member "exact" m);
          })
        (Json.to_list (Json.member "metrics" j));
  }
