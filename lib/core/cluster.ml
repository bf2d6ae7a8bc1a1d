open Farm_sim

(* The cluster harness: builds a FaRM instance (machines, fabric, ring
   logs, Zookeeper-equivalent, initial configuration), provides failure
   injection, and records recovery milestones for the evaluation
   figures. *)

type t = {
  engine : Engine.t;
  params : Params.t;
  rng : Rng.t;
  fabric : Wire.message Farm_net.Fabric.t;
  zk : Config.t Farm_coord.Zk.t;
  machines : State.t array;
  domain_of : int -> int;
  log : Farm_obs.Obs.log;
}

(* Every simulated thread keeps process state in flight (continuations,
   pending RPCs, lock and log waits) that outlives a default-sized minor
   heap and gets promoted, costing minor-GC time and major heap. Give the
   calling domain up to 8 K words (64 KB) of minor heap per thread of the
   fleet: the largest power of two within that, capped at 1 M words
   (8 MB). Below 64 threads this is the 256 K-word default, and the heap
   never shrinks. OCaml 5 sizes minor heaps per domain, so this covers the
   domain that builds, and therefore runs, the cluster. *)
let size_minor_heap ~threads =
  let rec pow2 w = if 2 * w > threads * 8192 then w else pow2 (2 * w) in
  let want = min (1 lsl 20) (pow2 1) in
  let g = Gc.get () in
  if want > g.Gc.minor_heap_size then Gc.set { g with Gc.minor_heap_size = want }

let create ?(seed = 42) ?(params = Params.default) ?(domains = fun i -> i) ~machines:n () =
  if n < 1 then invalid_arg "Cluster.create: need at least one machine";
  size_minor_heap ~threads:(n * params.Params.threads_per_machine);
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let fabric =
    Farm_net.Fabric.create engine ~params:Farm_net.Params.default ~rng:(Rng.split rng)
  in
  let zk = Farm_coord.Zk.create engine ~rng:(Rng.split rng) ~replicas:5 in
  (* the clock service and per-machine offsets exist in BOTH protocol
     modes, drawn from a dedicated stream: switching Params.protocol never
     perturbs the fabric/zk/machine rng streams *)
  let clock = Clock.create engine ~eps:Params.clock_eps in
  let clock_rng = Rng.split rng in
  let members = List.init n Fun.id in
  let domains_list = List.map (fun m -> (m, domains m)) members in
  let config = Config.make ~id:1 ~members ~domains:domains_list ~cm:0 in
  ignore (Farm_coord.Zk.bootstrap zk config);
  let directory = Int_tbl.create n in
  let log = Farm_obs.Obs.create_log () in
  let states =
    Array.init n (fun id ->
        let cpu = Cpu.create engine ~threads:params.Params.threads_per_machine in
        let obs = Farm_obs.Obs.create ~log engine ~machine:id in
        Farm_net.Fabric.add_machine ~obs fabric ~id ~cpu;
        let nv =
          {
            State.bank = Farm_nvram.Bank.create ();
            replicas = Hashtbl.create 16;
            logs_in = Hashtbl.create (max 8 n);
          }
        in
        let clk = Clock.handle clock ~offset_ns:(Clock.draw_offset clock clock_rng) in
        State.create ~id ~engine ~rng:(Rng.split rng) ~params ~fabric ~zk ~cpu ~nv
          ~clock:clk ~config ~directory ~obs)
  in
  Array.iter (fun st -> Int_tbl.replace directory st.State.id st) states;
  (* a ring log (located at the receiver) for every ordered machine pair *)
  for s = 0 to n - 1 do
    for r = 0 to n - 1 do
      let log = Ringlog.create ~sender:s ~receiver:r ~capacity:params.Params.log_size in
      Hashtbl.replace states.(r).State.nv.logs_in s log;
      Int_tbl.replace states.(s).State.logs_out r log
    done
  done;
  let t =
    {
      engine;
      params;
      rng;
      fabric;
      zk;
      machines = states;
      domain_of = domains;
      log;
    }
  in
  Array.iter Node.start states;
  t

let machine t id = t.machines.(id)
let n_machines t = Array.length t.machines
let now t = Engine.now t.engine

let run_until t ~at = Engine.run ~until:at t.engine
let run_for t ~d = Engine.run ~until:(Time.add (Engine.now t.engine) d) t.engine

(* Run each [(machine, fn)] as a process on its machine, all spawned at
   the current instant, and drive the engine in 1 ms quanta until every one
   has returned: simulated time advances by whole milliseconds. Results in
   argument order. Setup/teardown convenience for tests and benchmarks. *)
let run_on_all t procs =
  let results =
    List.map
      (fun (machine, fn) ->
        let st = t.machines.(machine) in
        let result = ref None in
        Proc.spawn ~ctx:st.State.ctx t.engine (fun () -> result := Some (fn st));
        result)
      procs
  in
  let running () = List.exists (fun r -> Option.is_none !r) results in
  let guard = ref 0 in
  while running () && Engine.pending t.engine > 0 && !guard < 10_000 do
    incr guard;
    Engine.run ~until:(Time.add (Engine.now t.engine) (Time.ms 1)) t.engine
  done;
  List.map
    (fun r ->
      match !r with Some v -> v | None -> failwith "Cluster.run_on: process did not complete")
    results

let run_on t ~machine fn =
  match run_on_all t [ (machine, fn) ] with [ v ] -> v | _ -> assert false

(* {1 Failure injection} *)

(* Kill a machine: its FaRM process stops (all its green processes are
   cancelled, its NIC stops serving) but its non-volatile DRAM — regions,
   block headers, incoming logs — survives. *)
let kill t id =
  let st = t.machines.(id) in
  if st.State.alive then begin
    st.State.alive <- false;
    Farm_net.Fabric.set_alive t.fabric id false;
    Proc.Ctx.cancel st.State.ctx;
    Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_ms_killed ~a:0 ~b:0 ~c:0
  end

let kill_domain t d =
  Array.iter (fun st -> if t.domain_of st.State.id = d then kill t st.State.id) t.machines

(* {1 Full-cluster power failure (§5)}

   "We provide durability for all committed transactions even if the entire
   cluster fails or loses power: all committed state can be recovered from
   regions and logs stored in non-volatile DRAM."

   [restart_machine] boots a machine's FaRM process again on top of its
   surviving NVRAM (regions, block headers, incoming logs with their
   unprocessed and resident records); volatile state — caches, coordinator
   tables, leases, free lists — is rebuilt. [power_cycle] restarts every
   machine and then performs the boot-time configuration change: a fresh
   configuration (same members) whose region mappings mark every region as
   changed, so the standard drain/vote/decide recovery resolves every
   transaction that was in flight at the power failure. *)

let restart_machine ?(rejoining = true) t id ~config =
  let old = t.machines.(id) in
  if old.State.alive then invalid_arg "Cluster.restart_machine: machine is alive";
  let cpu = Cpu.create t.engine ~threads:t.params.Params.threads_per_machine in
  (* the obs sink survives the crash: counters keep accumulating and the
     flight recorder retains pre-crash events *)
  let obs = old.State.obs in
  Farm_net.Fabric.reset_machine ~obs t.fabric ~id ~cpu;
  let directory = old.State.directory in
  let st =
    (* the clock offset is a hardware property of the machine: a restart
       keeps the old handle (same static offset, same engine) *)
    State.create ~id ~engine:t.engine ~rng:(Rng.split t.rng) ~params:t.params
      ~fabric:t.fabric ~zk:t.zk ~cpu ~nv:old.State.nv ~clock:old.State.clock ~config
      ~directory ~obs
  in
  (* reconnect the sender-side views of the shared ring logs; reservations
     and head estimates died with the process, so resynchronize them *)
  Int_tbl.iter
    (fun dst log ->
      Int_tbl.replace st.State.logs_out dst log;
      Ringlog.reset_sender_view log)
    old.State.logs_out;
  st.State.rejoining <- rejoining;
  Int_tbl.replace directory id st;
  t.machines.(id) <- st;
  Node.start st;
  st

let power_cycle t =
  Array.iter (fun (st : State.t) -> if st.State.alive then kill t st.State.id) t.machines;
  (* boot from the coordination service's configuration *)
  let seq, old_config =
    match Farm_coord.Zk.bootstrap_read t.zk with
    | Some (seq, c) -> (seq, c)
    | None -> failwith "Cluster.power_cycle: no configuration stored"
  in
  let new_id = old_config.Config.id + 1 in
  let config =
    Config.make ~id:new_id ~members:old_config.Config.members
      ~domains:old_config.Config.domains ~cm:old_config.Config.cm
  in
  ignore (Farm_coord.Zk.bootstrap_cas t.zk ~expected_seq:seq config);
  let machines =
    List.map
      (fun id -> restart_machine ~rejoining:false t id ~config:old_config)
      old_config.Config.members
  in
  (* rebuild the region map from the surviving NVRAM replica roles; every
     region is marked changed in this configuration so that every in-flight
     transaction from before the power failure is treated as recovering *)
  let owners =
    (* each machine's replicas in table order *)
    Cm.claims
      (List.map (fun (st : State.t) -> (st.State.id, List.rev (Cm.replica_roles st))) machines)
  in
  let infos =
    Hashtbl.fold
      (fun rid claim acc ->
        match claim with
        | Some primary, backups | None, primary :: backups ->
            let last_primary_change = new_id and last_replica_change = new_id in
            { Wire.rid; primary; backups; last_primary_change; last_replica_change; critical = false }
            :: acc
        | None, [] -> acc)
      owners []
  in
  (* install CM state on the restarted CM ([Node.start] already granted
     every member a lease there) *)
  let cm_st = t.machines.(config.Config.cm) in
  let cm = State.ensure_cm cm_st in
  List.iter (fun (i : Wire.region_info) -> Hashtbl.replace cm.State.owners i.Wire.rid i) infos;
  cm.State.next_rid <-
    1 + List.fold_left (fun acc (i : Wire.region_info) -> max acc i.Wire.rid) 0 infos;
  (* deliver the boot configuration and commit it (as processes on each
     machine: the ack send blocks on the CPU): the normal drain / vote /
     decide recovery takes over from here *)
  List.iter
    (fun (st : State.t) ->
      Proc.spawn ~ctx:st.State.ctx t.engine (fun () ->
          Membership.apply_new_config st config infos))
    machines;
  run_for t ~d:(Time.ms 1);
  List.iter
    (fun (st : State.t) ->
      Proc.spawn ~ctx:st.State.ctx t.engine (fun () ->
          if Membership.on_config_commit st ~cfg:new_id then Recovery.on_config_commit st))
    machines;
  Farm_obs.Obs.event t.machines.(config.Config.cm).State.obs Farm_obs.Obs.K_ms_power_cycle
    ~a:0 ~b:0 ~c:0

let partition t ~group ids =
  List.iter (fun id -> Farm_net.Fabric.set_partition t.fabric id group) ids

(* Undo every network fault: all machines back in partition group 0, all
   per-link delay/loss injection cleared, and all gray state — gray NICs,
   directed blackholes, CPU slow factors — restored to healthy. Dead
   machines stay dead and evicted machines stay evicted — healing the
   network never re-admits anyone (the paper never re-admits machines
   mid-run). *)
let heal t =
  Array.iter
    (fun (st : State.t) ->
      if st.State.alive then Farm_net.Fabric.set_partition t.fabric st.State.id 0;
      Cpu.set_slow_factor st.State.cpu 1)
    t.machines;
  Farm_net.Fabric.clear_link_faults t.fabric;
  Farm_net.Fabric.clear_gray_faults t.fabric

(* The newest configuration committed by any alive machine. Its members are
   the machines whose state is authoritative: alive non-members are evicted
   zombies whose stale tables must not be probed. *)
let current_config t =
  Array.fold_left
    (fun acc (st : State.t) ->
      if not st.State.alive then acc
      else
        match acc with
        | Some (c : Config.t) when c.Config.id >= st.State.config.Config.id -> acc
        | _ -> Some st.State.config)
    None t.machines

(* The CM of the newest configuration. Any one machine's view can be stale:
   a dead machine keeps the configuration it died in. With no machine
   alive, machine 0's last view. *)
let cm t =
  match current_config t with
  | Some c -> c.Config.cm
  | None -> t.machines.(0).State.config.Config.cm

let kill_cm t = kill t (cm t)

(* {1 Quiesce}

   Drive the simulation until the cluster settles: no member is
   reconfiguring or blocked, every recovery coordination is decided, and no
   new milestone has appeared for two consecutive windows. Used by the
   fault fuzzer before running invariant probes. Returns [false] when the
   cluster fails to settle within [max_wait] — itself a liveness
   violation. *)
let quiesce t =
  let max_wait = Time.ms 1_000 and window = Time.ms 30 in
  let members_settled () =
    match current_config t with
    | None -> false
    | Some cfg ->
        List.for_all
          (fun m ->
            let st = t.machines.(m) in
            (not st.State.alive)
            || ((not st.State.reconfig_active)
               && (not st.State.blocked)
               && st.State.config.Config.id = cfg.Config.id
               && Txid.Tbl.fold
                    (fun _ rc acc -> acc && rc.State.rc_decided)
                    st.State.rec_coords true))
          cfg.Config.members
  in
  let deadline = Time.add (Engine.now t.engine) max_wait in
  let rec loop last_count streak =
    run_for t ~d:window;
    let count = Farm_obs.Obs.log_milestones t.log in
    let stable = members_settled () && count = last_count in
    if stable && streak >= 1 then true
    else if Time.( >= ) (Engine.now t.engine) deadline then members_settled ()
    else loop count (if stable then streak + 1 else 0)
  in
  loop (-1) 0

(* Drive the engine in 1 ms quanta until no alive machine holds a live
   transaction, a truncation it has not yet sent, a log write still on the
   wire or a log record it is still processing. *)
let settle t =
  let busy (st : State.t) =
    st.State.alive
    && (Txid.Tbl.length st.State.active_txs > 0
       || Int_tbl.fold (fun _ q acc -> acc || !q <> []) st.State.pending_trunc false
       || st.State.log_writes > 0
       || st.State.inflight > 0)
  in
  let guard = ref 0 in
  while Array.exists busy t.machines do
    if !guard >= 10_000 then failwith "Cluster.settle: cluster did not settle";
    incr guard;
    run_for t ~d:(Time.ms 1)
  done

(* {1 Region setup} *)

(* Allocate up to [n] regions through the CM (two-phase prepare/commit)
   from one process on [from]: one request after another, each sent once
   the CM has answered the previous one (and recorded its owners), so the
   CM places them exactly as [n] separate calls would. All of them run
   inside one [run_on]. Stops at the first failure. *)
let alloc_seq ?locality ?(from = 0) t n =
  run_on t ~machine:from (fun st ->
      let rec go acc k =
        if k = 0 then List.rev acc
        else
          let cm = st.State.config.Config.cm in
          match
            Comms.call st ~dst:cm ~timeout:(Time.ms 200) (Wire.Alloc_region_req { locality })
          with
          | Ok (Wire.Alloc_region_reply { info = Some info }) ->
              Int_tbl.replace st.State.region_map info.Wire.rid info;
              go (info :: acc) (k - 1)
          | Ok _ | Error _ -> List.rev acc
      in
      go [] n)

let alloc_region ?locality ?from t =
  match alloc_seq ?locality ?from t 1 with [ info ] -> Some info | _ -> None

let alloc_region_exn ?locality ?from t =
  match alloc_region ?locality ?from t with
  | Some info -> info
  | None -> failwith "Cluster.alloc_region: allocation failed"

let alloc_regions t n =
  let infos = alloc_seq t n in
  if List.length infos < n then failwith "Cluster.alloc_regions: allocation failed";
  Array.of_list infos

(* {1 Introspection for tests and benchmarks} *)

let milestones t =
  List.filter_map
    (fun (r : Farm_obs.Obs.record) ->
      if Farm_obs.Obs.is_milestone r.r_kind then
        Some (Farm_obs.Obs.milestone_tag r.r_kind ~a:r.r_a, r.r_machine, Time.ns r.r_at)
      else None)
    (Farm_obs.Obs.log_records t.log)

let log_events t ?(after = Time.zero) kind =
  List.filter
    (fun (r : Farm_obs.Obs.record) -> r.r_kind = kind && r.r_at >= Time.to_ns after)
    (Farm_obs.Obs.log_records t.log)

let first_event t ?after kind =
  match log_events t ?after kind with
  | r :: _ -> Some (Time.ns r.r_at)
  | [] -> None

let lost_regions t =
  List.map (fun (r : Farm_obs.Obs.record) -> r.r_a) (log_events t Farm_obs.Obs.K_ms_region_lost)

(* Measurements are read from the machines' Obs sinks, which survive
   restarts, so they cover every machine's whole history. *)
let merged_counter t c =
  Array.fold_left (fun acc st -> acc + Farm_obs.Obs.counter st.State.obs c) 0 t.machines

let total_committed t = merged_counter t Farm_obs.Obs.C_tx_commit
let total_aborted t = merged_counter t Farm_obs.Obs.C_tx_abort

(* Aggregate cluster throughput as committed transactions per 1 ms bin. *)
let throughput_series t ~until =
  let nbins = (Time.to_ns until / Time.to_ns (Time.ms 1)) + 1 in
  let bins = Array.make nbins 0 in
  Array.iter
    (fun st ->
      let s = Farm_obs.Obs.commit_series st.State.obs in
      for i = 0 to nbins - 1 do
        bins.(i) <- bins.(i) + Stats.Series.get s i
      done)
    t.machines;
  bins

let merged_latency t =
  let h = Stats.Hist.create () in
  Array.iter
    (fun st -> Stats.Hist.merge ~into:h (Farm_obs.Obs.commit_latency st.State.obs))
    t.machines;
  h

(* All replicas of a region across the cluster, as (machine, replica). *)
let replicas_of t rid =
  Array.fold_left
    (fun acc st ->
      match State.replica st rid with Some r -> (st.State.id, r) :: acc | None -> acc)
    [] t.machines

(* {1 Observability} *)

let set_recording t on =
  Array.iter (fun st -> Farm_obs.Obs.set_enabled st.State.obs on) t.machines

(* The per-key tables below are string-keyed, so benches and CLIs need no
   dependency on the obs library. Each lists the keys of [all] in
   declaration order, skipping keys that are zero (or empty) on every
   machine. [nonzero_totals] sums a per-machine integer; [merged_hists]
   merges a per-machine histogram. *)
let nonzero_totals t all name (total : Farm_obs.Obs.t -> 'k -> int) =
  List.filter_map
    (fun k ->
      let v = Array.fold_left (fun acc st -> acc + total st.State.obs k) 0 t.machines in
      if v = 0 then None else Some (name k, v))
    all

let merged_hists t all name (hist : Farm_obs.Obs.t -> 'k -> Stats.Hist.t) =
  List.filter_map
    (fun k ->
      let h = Stats.Hist.create () in
      Array.iter (fun st -> Stats.Hist.merge ~into:h (hist st.State.obs k)) t.machines;
      if Stats.Hist.count h = 0 then None else Some (name k, h))
    all

let merged_counters t =
  nonzero_totals t Farm_obs.Obs.all_counters Farm_obs.Obs.counter_name Farm_obs.Obs.counter

let merged_phase_hists t =
  merged_hists t Farm_obs.Obs.all_phases Farm_obs.Obs.point_name Farm_obs.Obs.hist

let merged_stage_hists t =
  merged_hists t Farm_obs.Obs.all_stages Farm_obs.Obs.point_name Farm_obs.Obs.hist

(* The flight recorder: every machine's event ring, merged into one
   time-sorted, human-readable dump (ties broken by machine id, then by
   emission order: the folds cons newest first, so the list is reversed
   before the stable sort). *)
let flight_dump t =
  let lines =
    Array.fold_left
      (fun acc st ->
        List.fold_left
          (fun acc (at, line) -> (at, st.State.id, line) :: acc)
          acc
          (Farm_obs.Obs.events st.State.obs))
      [] t.machines
  in
  let lines =
    List.stable_sort
      (fun (a, ma, _) (b, mb, _) -> if a = b then compare ma mb else compare a b)
      (List.rev lines)
  in
  List.map
    (fun (at, m, line) ->
      Printf.sprintf "[%12.3fus] m%d %s" (float_of_int at /. 1_000.) m line)
    lines

(* {2 Causal tracing and timeline sampling} *)

let set_tracing t on =
  Array.iter
    (fun st -> Farm_obs.Tracer.set_enabled (Farm_obs.Obs.tracer st.State.obs) on)
    t.machines

(* All machines' span buffers merged into one Chrome trace-event JSON
   document. Tracers live in the obs sinks, which survive restarts, so the
   dump covers the whole run including pre-crash spans. *)
let tracers t =
  Array.to_list (Array.map (fun st -> Farm_obs.Obs.tracer st.State.obs) t.machines)

let trace_dump t = Farm_obs.Tracer.export_json (tracers t)

(* {2 Latency blame, critical paths and heat} *)

let set_blame t on =
  Array.iter (fun st -> Farm_obs.Obs.set_blame st.State.obs on) t.machines

let blame_totals t =
  nonzero_totals t Farm_obs.Obs.all_blames Farm_obs.Obs.blame_name Farm_obs.Obs.blame_total_ns

let phase_totals t =
  nonzero_totals t Farm_obs.Obs.all_phases Farm_obs.Obs.point_name Farm_obs.Obs.phase_total_ns

let merged_blame_hists t =
  merged_hists t Farm_obs.Obs.all_blames Farm_obs.Obs.blame_name Farm_obs.Obs.blame_hist

type heat = { h_region : int; h_score : int; h_access : int; h_conflict : int }

let heat_report t =
  let now = Time.to_ns (Engine.now t.engine) in
  List.map
    (fun (s : Farm_obs.Heat.score) ->
      {
        h_region = s.Farm_obs.Heat.hs_region;
        h_score = s.Farm_obs.Heat.hs_score;
        h_access = s.Farm_obs.Heat.hs_access;
        h_conflict = s.Farm_obs.Heat.hs_conflict;
      })
    (Farm_obs.Heat.merge
       (Array.to_list (Array.map (fun st -> Farm_obs.Obs.heat st.State.obs) t.machines))
       ~now)

let all_exemplars t =
  Array.fold_left
    (fun acc st -> acc @ Farm_obs.Obs.exemplars st.State.obs)
    [] t.machines

(* Blame of the slowest exemplar transactions only — the tail a latency
   SLO's p999 is made of. *)
let tail_blame t =
  let exs = all_exemplars t in
  List.filter_map
    (fun b ->
      let i = Farm_obs.Obs.blame_index b in
      let v =
        List.fold_left
          (fun acc (ex : Farm_obs.Obs.exemplar) -> acc + ex.Farm_obs.Obs.ex_blame.(i))
          0 exs
      in
      if v = 0 then None else Some (Farm_obs.Obs.blame_name b, v))
    Farm_obs.Obs.all_blames

let critpaths t ~k =
  List.map
    (fun p -> Format.asprintf "%a" Farm_obs.Critpath.pp_path p)
    (Farm_obs.Critpath.paths ~tracers:(tracers t) ~exemplars:(all_exemplars t) ~k)

(* Like [trace_dump], with the top-[k] exemplars' critical-path slices
   tagged [args.crit = 1] for Perfetto highlighting. *)
let trace_dump_critical t ~k =
  let paths =
    Farm_obs.Critpath.paths ~tracers:(tracers t) ~exemplars:(all_exemplars t) ~k
  in
  Farm_obs.Tracer.export_json ~mark:(Farm_obs.Critpath.mark paths) (tracers t)

(* Register the standard gauge set on a machine's sampler and start it.
   Gauges read through [t.machines.(i)] — not a captured [State.t] — so a
   machine restarted mid-run keeps feeding its (surviving) sampler from the
   fresh state. The Obs counters survive the restart; the CPU's busy time
   restarts at 0, and its cumulative delta clamps at 0 across the reset. *)
let start_sampling t ~until =
  let iv = Time.to_ns (Time.ms 1) in
  Array.iteri
    (fun i st ->
      let tl = Farm_obs.Obs.timeline st.State.obs in
      if not (Farm_obs.Timeline.running tl) then begin
        (* Callers may pre-register extra gauges (e.g. the open-loop
           admission-queue depth) before sampling starts; only the standard
           set's presence decides whether to add it again. *)
        if not (List.mem "commits" (Farm_obs.Timeline.series_names tl)) then begin
          let live () = t.machines.(i) in
          let obs = st.State.obs in
          let counter c () = Farm_obs.Obs.counter obs c in
          Farm_obs.Timeline.add_series tl ~name:"commits" ~kind:Farm_obs.Timeline.Cumulative
            (counter Farm_obs.Obs.C_tx_commit);
          Farm_obs.Timeline.add_series tl ~name:"aborts" ~kind:Farm_obs.Timeline.Cumulative
            (counter Farm_obs.Obs.C_tx_abort);
          Farm_obs.Timeline.add_series tl ~name:"one_sided_ops"
            ~kind:Farm_obs.Timeline.Cumulative (fun () ->
              counter Farm_obs.Obs.C_rdma_read () + counter Farm_obs.Obs.C_rdma_write ());
          Farm_obs.Timeline.add_series tl ~name:"log_ring_bytes"
            ~kind:Farm_obs.Timeline.Level (fun () ->
              Hashtbl.fold
                (fun _ log acc -> acc + Ringlog.used log)
                (live ()).State.nv.logs_in 0);
          Farm_obs.Timeline.add_series tl ~name:"cpu_busy_ns"
            ~kind:Farm_obs.Timeline.Cumulative (fun () ->
              Time.to_ns (Cpu.busy_total (live ()).State.cpu))
        end;
        Farm_obs.Timeline.start tl ~interval:iv ~until:(Time.to_ns until)
      end)
    t.machines

let timelines t =
  Array.to_list (Array.map (fun st -> Farm_obs.Obs.timeline st.State.obs) t.machines)

let timeline_dump t = Farm_obs.Timeline.export_json (timelines t)

let timeline_column t name =
  let names, rows = Farm_obs.Timeline.merge (timelines t) in
  match List.find_index (String.equal name) names with
  | None -> []
  | Some i -> List.map (fun (at, vals) -> (at, vals.(i))) rows

(* The abort-cause breakdown: merged cause counters plus the residue of
   total aborts no cause accounts for. *)
let abort_breakdown t =
  let merged = merged_counter t in
  let total = merged Farm_obs.Obs.C_tx_abort in
  let lock = merged Farm_obs.Obs.C_abort_lock_refused in
  let validate = merged Farm_obs.Obs.C_abort_validate_failed in
  let timeout = merged Farm_obs.Obs.C_abort_timeout in
  [
    ("lock-refused", lock);
    ("validate-failed", validate);
    ("timeout", timeout);
    ("other", max 0 (total - lock - validate - timeout));
  ]

let pp_stats ppf t =
  Array.iter
    (fun st -> Fmt.pf ppf "m%d: %a@." st.State.id Farm_obs.Obs.pp_counters st.State.obs)
    t.machines;
  (match merged_phase_hists t with
  | [] -> ()
  | hs -> Fmt.pf ppf "commit phases (committed tx, merged):@.%a" Farm_obs.Obs.pp_hist_table hs);
  match merged_stage_hists t with
  | [] -> ()
  | hs -> Fmt.pf ppf "recovery stages (merged):@.%a" Farm_obs.Obs.pp_hist_table hs
