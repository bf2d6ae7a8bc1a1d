open Farm_sim
open Farm_core

(* The nemesis applies a fault schedule to a live cluster, translating each
   scripted fault into the corresponding injection hook. Each applied fault
   is logged as a typed event in the cluster log ([K_fault], carrying its
   index in the schedule), so a replayed seed produces an identical event
   trace; renderers look the fault up in the schedule.

   Faults are applied from the driving loop, never from scheduled engine
   callbacks: [Cluster.power_cycle] drives the engine internally, so it must
   run between [Engine.run] calls, not within one. *)

(* Nemesis actions are cluster-wide; they are filed under machine 0. *)
let log (c : Cluster.t) kind ~a ~b =
  Farm_obs.Obs.event (Cluster.machine c 0).State.obs kind ~a ~b ~c:0

let alive c m = (Cluster.machine c m).State.alive

(* Schedules are drawn without knowledge of earlier faults' outcomes, so
   crashing, stalling, skewing or throttling a dead machine, and
   restarting a live one, are skipped. *)
let applies c = function
  | Schedule.Restart m -> not (alive c m)
  | Schedule.Crash m
  | Schedule.Lease_stall { machine = m; _ }
  | Schedule.Clock_skew { machine = m; _ }
  | Schedule.Cpu_slow { machine = m; _ }
  | Schedule.Cpu_heal m ->
      alive c m
  | _ -> true

let apply (c : Cluster.t) (fault : Schedule.fault) =
  match fault with
  | Schedule.Crash m -> Cluster.kill c m
  | Schedule.Restart m ->
      (* reboot with the machine's own pre-crash configuration: a real
         reincarnation comes back with stale knowledge and must be kept
         out by the membership protocol, not by the harness *)
      ignore (Cluster.restart_machine c m ~config:(Cluster.machine c m).State.config)
  | Schedule.Power_cycle ->
      Cluster.heal c;
      Cluster.power_cycle c
  | Schedule.Partition ms -> Cluster.partition c ~group:1 ms
  | Schedule.Heal -> Cluster.heal c
  | Schedule.Link_fault { src; dst; delay; loss } ->
      Farm_net.Fabric.set_link_fault ~delay ~loss c.Cluster.fabric ~src ~dst
  | Schedule.Link_heal { src; dst } ->
      Farm_net.Fabric.clear_link_fault c.Cluster.fabric ~src ~dst
  | Schedule.Lease_stall { machine; duration } ->
      Lease.inject_stall (Cluster.machine c machine) ~duration
  | Schedule.Clock_skew { machine; delta } ->
      Lease.inject_clock_skew (Cluster.machine c machine) ~delta
  | Schedule.Slow_nic { machine; delay_factor; loss } ->
      Farm_net.Fabric.set_nic_gray ~delay_factor ~loss c.Cluster.fabric ~machine
  | Schedule.Nic_heal machine -> Farm_net.Fabric.clear_nic_gray c.Cluster.fabric ~machine
  | Schedule.Asym_partition { srcs; dsts } ->
      List.iter
        (fun src ->
          List.iter
            (fun dst ->
              if src <> dst then Farm_net.Fabric.set_blackhole c.Cluster.fabric ~src ~dst)
            dsts)
        srcs
  | Schedule.Cpu_slow { machine; factor } ->
      Farm_sim.Cpu.set_slow_factor (Cluster.machine c machine).State.cpu factor
  | Schedule.Cpu_heal machine ->
      Farm_sim.Cpu.set_slow_factor (Cluster.machine c machine).State.cpu 1
  | Schedule.Lease_flap { machine; period; count; stall } ->
      (* Expand the flap into [count] periodic stall injections, scheduled
         as engine callbacks. Unlike power-cycling, a stall injection only
         mutates lease state and logs — safe from inside a callback, and
         the deterministic engine clock makes the expansion replayable. *)
      for i = 0 to count - 1 do
        Engine.schedule_in c.Cluster.engine ~after:(Time.mul_int period i) (fun () ->
            if alive c machine then begin
              log c Farm_obs.Obs.K_flap_stall ~a:machine ~b:(Time.to_ns stall);
              Lease.inject_stall (Cluster.machine c machine) ~duration:stall
            end)
      done

(* Run the schedule against the cluster: advance the simulation to each
   event's instant (relative to [start]), log the fault, then apply it.
   Returns with the engine at the last event's time; the caller finishes
   the run and heals/quiesces before probing invariants. *)
let run (c : Cluster.t) ~start (sched : Schedule.t) =
  List.iteri
    (fun index (e : Schedule.event) ->
      let at = Time.add start e.Schedule.at in
      if Time.( > ) at (Cluster.now c) then Cluster.run_until c ~at;
      if applies c e.Schedule.fault then begin
        log c Farm_obs.Obs.K_fault ~a:index ~b:0;
        apply c e.Schedule.fault
      end)
    sched.Schedule.events
