open Farm_sim

(* Failure detection with leases (§5.1).

   Every machine holds a lease at the CM and the CM holds a lease at every
   machine, granted by a 3-way handshake: machine sends a request; the CM's
   response is both a grant and a request; the machine's second message
   grants the CM's lease. Renewals run every lease/5.

   Four lease-manager implementations are modelled (Figure 16):
   - [Rpc_shared]      reliable RPC on shared queue pairs: lease traffic
                       queues on the NIC behind bulk traffic and on the
                       shared worker threads behind foreground work.
   - [Ud_shared]       unreliable datagrams (dedicated queue pair, skips
                       NIC queueing) but processed on shared threads.
   - [Ud_thread]       a dedicated lease-manager thread at normal priority:
                       no CPU queueing, but occasionally preempted by
                       higher-priority OS work (modelled as suspension
                       spikes).
   - [Ud_thread_pri]   interrupt-driven at the highest user-space priority:
                       only the 0.5 ms system-timer resolution and the
                       loaded-network round trip remain. *)

let timer_resolution = Time.us 500

(* Delay before this machine's lease manager actually gets to run, per
   implementation. Every implementation first waits out [suspended_until]:
   the Ud_thread preemption spikes set it, and so does the fault fuzzer's
   lease-stall nemesis (a stalled lease manager models a GC pause or
   scheduler outage on any implementation). *)
let scheduling_delay st =
  let l = st.State.lease in
  let now = State.now st in
  let stall =
    if Time.( > ) l.State.suspended_until now then Time.sub l.State.suspended_until now
    else Time.zero
  in
  let base =
    match l.State.impl with
    | State.Rpc_shared | State.Ud_shared ->
        (* shared worker threads: wait for a free one *)
        Cpu.queue_delay st.State.cpu
    | State.Ud_thread ->
        if Time.( > ) stall Time.zero then Time.zero
        else Time.ns (Rng.int st.State.rng 20_000)
    | State.Ud_thread_pri ->
        (* interrupt latency: a few microseconds *)
        Time.ns (2_000 + Rng.int st.State.rng 3_000)
  in
  Time.max stall base

(* Quantize a wakeup to the system timer for the interrupt-driven
   implementation. *)
let quantize st d =
  match st.State.lease.State.impl with
  | State.Ud_thread_pri | State.Ud_thread ->
      let r = Time.to_ns timer_resolution in
      Time.ns ((Time.to_ns d + r - 1) / r * r)
  | State.Rpc_shared | State.Ud_shared -> d

let send_lease st ~dst msg =
  let prio, transport =
    match st.State.lease.State.impl with
    | State.Rpc_shared -> (false, `Rc)
    | State.Ud_shared | State.Ud_thread | State.Ud_thread_pri -> (true, `Ud)
  in
  (* lease messages are tiny; senders on a dedicated thread pay no shared
     CPU (the scheduling delay was already modelled) *)
  Comms.send st ~prio ~transport ~cpu_cost:Time.zero ~dst msg

(* Background OS preemption spikes for the dedicated-thread (non-priority)
   lease manager. *)
let start_spike_generator st =
  match st.State.lease.State.impl with
  | State.Ud_thread ->
      Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
          let rec loop () =
            Proc.sleep (Time.of_ms_float (Rng.exponential st.State.rng ~mean:1500.));
            Proc.check_cancelled ();
            let dur = Time.us (500 + Rng.int st.State.rng 29_500) in
            st.State.lease.State.suspended_until <- Time.add (State.now st) dur;
            loop ()
          in
          loop ())
  | State.Rpc_shared | State.Ud_shared | State.Ud_thread_pri -> ()

(* {1 Two-level hierarchy (§5.1)}

   "Significantly larger clusters may require a two-level hierarchy, which
   in the worst case would double failure detection time."

   With [lease_group_size] > 0, leaders exchange leases with the CM and
   members with their leader ([Reconfig.lease_group] says who is whose);
   the CM's lease traffic shrinks from O(n) to O(n / group size). A leader
   detecting a member expiry (or a member detecting its leader) reports
   the suspect to the CM, which runs the normal reconfiguration — hence the
   up-to-doubled detection latency. *)

let group st =
  Reconfig.lease_group ~group_size:st.State.params.Params.lease_group_size st.State.config
    st.State.id

(* The CM and the group leaders grant leases, and keep their grantees'
   last renewals in [peer_leases]. *)
let grants st = State.is_cm st || (group st).Reconfig.leads

(* A CM's lease table for a new configuration: every member's lease starts
   now. *)
let grant_all st members =
  let table = st.State.lease.State.peer_leases in
  Hashtbl.reset table;
  List.iter (fun m -> Hashtbl.replace table m (State.now st)) members

(* {1 Machine side} *)

let renewal_period st =
  Time.div_int st.State.params.Params.lease_duration Params.lease_renew_divisor

(* The renewal loop: every lease/5, ask the CM for a fresh lease. *)
let start_renewal st =
  Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
      st.State.lease.State.last_grant_from_cm <- State.now st;
      let rec loop () =
        Proc.check_cancelled ();
        Proc.sleep (quantize st (renewal_period st));
        let d = scheduling_delay st in
        if Time.( > ) d Time.zero then Proc.sleep d;
        Proc.check_cancelled ();
        if not (State.is_cm st) then begin
          let dst = (group st).Reconfig.grantor in
          Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_lease_renewal ~a:dst ~b:0 ~c:0;
          send_lease st ~dst
            (Wire.Lease_request
               { cfg = st.State.config.Config.id; sent_ns = Time.to_ns (State.now st) })
        end;
        loop ()
      in
      loop ())

(* Expiry checks. Flat: the CM checks every machine's lease and machines
   check the CM's. Hierarchical: the CM checks the group leaders, leaders
   check their members and the CM, members check their leader. Expiry
   triggers suspicion (and, through [on_suspect], reconfiguration). *)
let start_expiry_checker st =
  Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
      (* grantors start by assuming everyone renewed just now *)
      let init_watch watched =
        let table = st.State.lease.State.peer_leases in
        List.iter
          (fun m -> if not (Hashtbl.mem table m) then Hashtbl.replace table m (State.now st))
          watched
      in
      init_watch (group st).Reconfig.watches;
      let rec loop () =
        Proc.check_cancelled ();
        Proc.sleep Params.lease_check_interval;
        let lease = st.State.params.Params.lease_duration in
        let now = State.now st in
        (* grantor side: watch the machines that renew with me *)
        if grants st then begin
          let table = st.State.lease.State.peer_leases in
          let watched = (group st).Reconfig.watches in
          init_watch watched;
          (* membership by machine id, built once per tick: the fold
             below visits every lease, so a list lookup would make the
             tick quadratic in the members *)
          let is_watched = Array.make (1 + List.fold_left max st.State.id watched) false in
          List.iter (fun m -> is_watched.(m) <- true) watched;
          let expired =
            Hashtbl.fold
              (fun m last acc ->
                if
                  m <> st.State.id
                  && m < Array.length is_watched
                  && is_watched.(m)
                  && Time.( > ) (Time.sub now last) lease
                then m :: acc
                else acc)
              table []
          in
          if expired <> [] then begin
            st.State.lease.State.expiry_events <-
              st.State.lease.State.expiry_events + List.length expired;
            List.iter
              (fun m ->
                Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_lease_expiry ~a:m ~b:0
                  ~c:0)
              expired;
            (* stop repeat triggers: forget their leases *)
            List.iter (fun m -> Hashtbl.remove table m) expired;
            st.State.on_suspect expired
          end
        end;
        (* member side: watch my grantor *)
        if
          (not (State.is_cm st))
          && (not st.State.lease.State.cm_suspected)
          && Time.( > ) (Time.sub now st.State.lease.State.last_grant_from_cm) lease
        then begin
          st.State.lease.State.expiry_events <- st.State.lease.State.expiry_events + 1;
          let grantor = (group st).Reconfig.grantor in
          Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_lease_expiry ~a:grantor ~b:0 ~c:0;
          st.State.lease.State.cm_suspected <- true;
          st.State.on_suspect [ grantor ]
        end;
        loop ()
      in
      loop ())

(* {1 Message handling} — called from the dispatcher at NIC-delivery time;
   applies the implementation-specific processing delay itself. *)

let handle st ~src msg =
  Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
      let d = scheduling_delay st in
      if Time.( > ) d Time.zero then Proc.sleep d;
      Proc.check_cancelled ();
      let record_grantor sent_ns =
        st.State.lease.State.grantor_messages <- st.State.lease.State.grantor_messages + 1;
        Farm_obs.Obs.event st.State.obs Farm_obs.Obs.K_lease_grant ~a:src ~b:0 ~c:0;
        let table = st.State.lease.State.peer_leases in
        let prev = Option.value ~default:Time.zero (Hashtbl.find_opt table src) in
        Hashtbl.replace table src (Time.max prev (Time.ns sent_ns))
      in
      match msg with
      | Wire.Lease_request { cfg; sent_ns } ->
          if grants st && cfg = st.State.config.Config.id then begin
            record_grantor sent_ns;
            send_lease st ~dst:src
              (Wire.Lease_grant_and_request { cfg; sent_ns = Time.to_ns (State.now st) })
          end
      | Wire.Lease_grant_and_request { cfg; sent_ns } ->
          if cfg = st.State.config.Config.id && src = (group st).Reconfig.grantor then begin
            st.State.lease.State.last_grant_from_cm <-
              Time.max st.State.lease.State.last_grant_from_cm (Time.ns sent_ns);
            st.State.lease.State.cm_suspected <- false;
            send_lease st ~dst:src
              (Wire.Lease_grant { cfg; sent_ns = Time.to_ns (State.now st) })
          end
      | Wire.Lease_grant { cfg; sent_ns } ->
          if grants st && cfg = st.State.config.Config.id then
            record_grantor sent_ns
      | _ -> ())

let start st =
  start_spike_generator st;
  start_renewal st;
  start_expiry_checker st

(* {1 Nemesis hooks} — fault injection for the schedule fuzzer. *)

(* Stall this machine's lease manager for [duration]: renewals queued
   during the stall only go out afterwards, exactly like a GC pause or a
   scheduler outage would delay them. *)
let inject_stall st ~duration =
  let l = st.State.lease in
  l.State.suspended_until <- Time.max l.State.suspended_until (Time.add (State.now st) duration)

(* Skew this machine's lease clock forward by [delta]: every lease it holds
   or has granted looks [delta] older, so expiries fire early — the false
   suspicions a fast-running clock produces. *)
let inject_clock_skew st ~delta =
  let l = st.State.lease in
  l.State.last_grant_from_cm <- Time.sub l.State.last_grant_from_cm delta;
  let entries = Hashtbl.fold (fun m t acc -> (m, t) :: acc) l.State.peer_leases [] in
  List.iter (fun (m, t) -> Hashtbl.replace l.State.peer_leases m (Time.sub t delta)) entries
