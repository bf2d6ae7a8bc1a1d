open Farm_sim

(** Seeded fault scripts.

    A schedule is a timed list of fault injections drawn deterministically
    from an integer seed: equal seeds yield equal scripts, so a failing
    fuzzer run is reproduced exactly by its seed. The generator respects
    the cluster's fault budget — at most [replication - 1] machines are
    victimised by eviction-capable faults per schedule, so no region can
    lose all its replicas — and whole-cluster power failures are only mixed
    with benign link delays. *)

type fault =
  | Crash of int
  | Restart of int
  | Power_cycle
  | Partition of int list  (** isolate these machines from the rest *)
  | Heal  (** remove all partitions and link faults *)
  | Link_fault of { src : int; dst : int; delay : Time.t; loss : float }
  | Link_heal of { src : int; dst : int }
  | Lease_stall of { machine : int; duration : Time.t }
  | Clock_skew of { machine : int; delta : Time.t }
  | Slow_nic of { machine : int; delay_factor : float; loss : float }
      (** gray: every packet touching [machine] flies [delay_factor] x
          slower and is additionally lost with probability [loss] *)
  | Nic_heal of int
  | Asym_partition of { srcs : int list; dsts : int list }
      (** gray: directed blackholes src->dst for every pair; the reverse
          direction keeps working. Healed only by [Heal]. *)
  | Cpu_slow of { machine : int; factor : int }
      (** gray: every CPU cost on [machine] multiplied by [factor] *)
  | Cpu_heal of int
  | Lease_flap of { machine : int; period : Time.t; count : int; stall : Time.t }
      (** gray: [count] lease-manager stalls of [stall] each, [period]
          apart — each alone below expiry, compounding toward it *)

type event = { at : Time.t; fault : fault }
type t = { seed : int; machines : int; events : event list }

val generate : seed:int -> machines:int -> duration:Time.t -> lease:Time.t -> t
(** Draw a schedule for a [machines]-node cluster whose faults land within
    the first three quarters of [duration]; [lease] scales stall and heal
    delays. *)

val generate_gray : seed:int -> machines:int -> duration:Time.t -> lease:Time.t -> t
(** Like {!generate} but drawing only from the gray-failure family
    (slow/lossy NICs, directed blackholes, CPU throttling, lease flapping):
    every victim stays alive but degraded. Same fault budget; a separate
    generator so classic pools keep their exact historical streams. *)

val pp_fault : Format.formatter -> fault -> unit
val pp : Format.formatter -> t -> unit
