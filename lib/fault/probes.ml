open Farm_sim
open Farm_core
module Obs = Farm_obs.Obs

(* SLO invariant probes: graceful-degradation checks run against a healed,
   quiesced cluster after a fault schedule. Where {!Invariant} asks "is the
   state correct?", these ask "was the outage explained?" — a gray failure
   is allowed to cost throughput, but a cluster-wide commit stall is a
   violation unless the cluster produced suspicion evidence (a suspect /
   reconfiguration / recovery milestone) around it, and nothing may stay
   parked or queued once the network is healthy again.

   All probes are pure functions of cluster state, so replayed seeds report
   identical violations. *)

(* Milestones that count as "the cluster noticed": any of these within
   the slack window around a stall makes the stall an explained outage. *)
let suspicion_kinds =
  Obs.
    [
      K_ms_killed; K_ms_suspect; K_ms_probe; K_ms_zookeeper; K_ms_new_config;
      K_ms_config_commit; K_ms_power_cycle;
    ]

(* The zero-runs of a per-bin commit series between its first and last
   nonzero bins at or after bin [from], as inclusive (first, last) bin
   pairs in order. Bins before the first commit (set-up) and after the
   last (the load stopped) are not stalls. *)
let zero_runs ?(from = 0) series =
  let first = ref (-1) and last = ref (-1) in
  for i = from to Array.length series - 1 do
    if series.(i) > 0 then begin
      if !first < 0 then first := i;
      last := i
    end
  done;
  let runs = ref [] and run_start = ref (-1) in
  for i = max 0 !first to !last do
    if series.(i) = 0 then begin
      if !run_start < 0 then run_start := i
    end
    else if !run_start >= 0 then begin
      runs := (!run_start, i - 1) :: !runs;
      run_start := -1
    end
  done;
  List.rev !runs

(* A cluster-wide commit stall longer than 3x the lease that no suspicion
   milestone explains. Scans the per-ms committed series of the load
   window, which begins at [start]: set-up before it (a loader's idle time
   included) is not a stall. Every over-threshold zero-run must overlap a
   suspicion milestone, with one threshold of slack on each side
   (suspicion naturally trails the stall that caused it). A cluster that
   never commits has no runs: liveness probes report that. *)
let no_global_stall ~start (c : Cluster.t) : string list =
  let threshold = Time.mul_int c.Cluster.params.Params.lease_duration 3 in
  let bin_ns = Time.to_ns (Time.ms 1) in
  let thresh_bins = max 1 (Time.to_ns threshold / bin_ns) in
  let series = Cluster.throughput_series c ~until:(Cluster.now c) in
  let evidence =
    List.filter_map
      (fun (r : Obs.record) ->
        if List.mem r.r_kind suspicion_kinds then Some (r.r_at / bin_ns) else None)
      (Obs.log_records c.Cluster.log)
  in
  List.filter_map
    (fun (from, upto) ->
      let len = upto - from + 1 in
      let lo = from - thresh_bins and hi = upto + thresh_bins in
      if len > thresh_bins && not (List.exists (fun b -> b >= lo && b <= hi) evidence)
      then
        Some
          (Fmt.str "slo: global commit stall of %d ms at [%d,%d] ms with no active suspicion"
             len from upto)
      else None)
    (zero_runs ~from:(Time.to_ns start / bin_ns) series)

(* No transaction still parked past [park_timeout] after heal + quiesce.
   The park watchdog exists to bound how long a transient partition can
   strand a commit (PR 8's snapshot mode parks commits waiting on the
   global-time watermark); once the network is healthy and the cluster has
   settled, every coordinator's live-transaction table must have drained.
   Two timeouts of slack tolerate a watchdog tick in flight at probe time. *)
let no_parked_tx (c : Cluster.t) : string list =
  let park = c.Cluster.params.Params.park_timeout in
  let now = Cluster.now c in
  let limit = Time.mul_int park 2 in
  let out = ref [] in
  (match Cluster.current_config c with
  | None -> ()
  | Some cfg ->
      List.iter
        (fun m ->
          let st = Cluster.machine c m in
          if st.State.alive then
            Farm_core.Txid.Tbl.iter
              (fun txid (lt : State.tx_live) ->
                let age = Time.sub now lt.State.lt_born in
                if Time.( > ) age limit then
                  out :=
                    Fmt.str "slo: m%d transaction %a parked for %a (> 2x park_timeout %a)"
                      m Farm_core.Txid.pp txid Time.pp age Time.pp park
                    :: !out)
              st.State.active_txs)
        cfg.Config.members);
  List.rev !out

(* Every admission queue empty once the cluster has healed and settled:
   open-loop load may queue during an outage, but a queue that never drains
   afterwards means permanently lost capacity. [queues] reports the current
   (label, depth) pairs — a closure so the probe works for any queue owner
   (the open-loop driver, a test harness) without coupling to it. *)
let queues_drained ~(queues : unit -> (string * int) list) () : string list =
  List.filter_map
    (fun (label, depth) ->
      if depth > 0 then
        Some (Fmt.str "slo: queue %s still holds %d requests after heal" label depth)
      else None)
    (queues ())

(* The standard gray-sweep probe: stall + park checks, in the
   [Explorer.sweep ~probe] signature. The explorer starts its workers right
   after its set-up transactions, so the load window is the whole run. *)
let gray ~seed:_ (c : Cluster.t) : string list =
  no_global_stall ~start:Time.zero c @ no_parked_tx c
