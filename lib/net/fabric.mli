open Farm_sim

(** The simulated RDMA fabric: machines, reachability, one-sided verbs and
    messaging.

    ['msg] is the application-level message type (FaRM instantiates it with
    {!Farm_core.Wire.message}). Memory semantics stay with the caller:
    one-sided operations take closures that execute at the target-NIC DMA
    instant, so the network layer needs no knowledge of regions or logs.

    Machine failure is modelled by {!set_alive}: a dead machine's NIC stops
    serving one-sided operations and stops delivering messages, but
    responses already in flight still arrive — exactly the property that
    forces FaRM to drain logs during recovery. Network partitions are
    modelled by {!set_partition}: machines reach each other iff they are
    alive and in the same partition group. *)

type error = [ `Unreachable | `Timeout ]

type 'msg handler = src:int -> reply:(bytes:int -> 'msg -> unit) -> 'msg -> unit

type 'msg t

val create : Engine.t -> params:Params.t -> rng:Rng.t -> 'msg t

val add_machine : ?obs:Farm_obs.Obs.t -> 'msg t -> id:int -> cpu:Cpu.t -> unit
(** Register machine [id] with its CPU resource; a fresh NIC set is
    created for it. [obs] is the machine's observability sink; a disabled
    one is created when omitted. *)

val reset_machine : ?obs:Farm_obs.Obs.t -> 'msg t -> id:int -> cpu:Cpu.t -> unit
(** Re-register a machine after a restart: fresh NICs, alive again, no
    handler installed yet. The existing obs sink is kept unless [obs] is
    passed, so pre-crash events survive in the flight recorder. *)

val set_handler : 'msg t -> int -> 'msg handler -> unit
(** Install the receive dispatcher. It runs in "interrupt context" at
    NIC-delivery time and must charge its own CPU before heavy work. *)

val set_alive : 'msg t -> int -> bool -> unit
val set_partition : 'msg t -> int -> int -> unit
val reachable : 'msg t -> int -> int -> bool
val nic : 'msg t -> int -> Nic.t

(** {1 Link-fault injection} — nemesis hooks for the fault-schedule fuzzer.

    A link fault applies to every packet routed on the directed [src]->[dst]
    link: [delay] adds to its flight time and [loss] drops it with the
    given probability. Loss is interpreted per transport class, matching
    RDMA semantics: reliable-connected traffic (the one-sided verbs and
    {!call}) is retransmitted by the NIC, so each loss draw adds a
    retransmission timeout to the operation's latency but never fails it —
    only death and partitions do; unreliable-datagram traffic ({!send},
    which carries leases and other fire-and-forget messages) vanishes
    silently. Each drop or retransmission is an {!Farm_obs.Obs.event} of
    the sending machine. *)

val set_link_fault : ?delay:Time.t -> ?loss:float -> 'msg t -> src:int -> dst:int -> unit
val clear_link_fault : 'msg t -> src:int -> dst:int -> unit
val clear_link_faults : 'msg t -> unit
(** Remove one / all link faults. *)

(** {1 Gray-failure injection} — the slow-but-alive nemesis hooks.

    A gray NIC ({!set_nic_gray}) degrades every link touching one machine:
    flight times of packets entering or leaving it are multiplied by
    [delay_factor] and each such packet is additionally lost with
    probability [loss] (combined independently with any per-link fault, and
    interpreted per transport class exactly like link-fault loss). The
    machine stays alive, keeps its lease traffic flowing — just slowly and
    lossily — which is precisely what the binary alive/dead faults cannot
    express.

    A directed blackhole ({!set_blackhole}) kills the [src]->[dst] half of
    a link while the reverse direction keeps working: requests routed into
    it are unreachable, and completions/acks/replies whose return leg is
    blackholed are swallowed, surfacing as a bounded [`Unreachable] after
    {!Params.failure_timeout} (an RC QP error) rather than a hang. Sets of
    blackholes compose into asymmetric and partial partitions. *)

val set_nic_gray : ?delay_factor:float -> ?loss:float -> 'msg t -> machine:int -> unit
(** Raises if [delay_factor < 1.] or [loss] outside [0,1]. *)

val clear_nic_gray : 'msg t -> machine:int -> unit
val set_blackhole : 'msg t -> src:int -> dst:int -> unit

val clear_gray_faults : 'msg t -> unit
(** Remove every gray NIC and blackhole (the heal-all hook). *)

(** {1 One-sided verbs} — no CPU at the target, ever. Must be called from a
    process on machine [src]. Reads and writes share one flight path: the
    same reachability, blackhole and liveness checks and the same random
    draws in the same order; they differ only in the bytes each leg
    occupies (a read sends a request descriptor and carries the data back,
    a write carries the data out and a hardware ack back).

    [span], on {!one_sided_read} and the batched verbs below, is the
    calling transaction's {!Farm_obs.Obs.Span.t}: when passed, the verb
    claims its own elapsed time as three consecutive blame sub-intervals —
    descriptor issue CPU ([B_nic_issue]), the completion wait
    ([B_propagation]: wire flight, NIC serialization, retransmissions,
    remote DMA), and the completion reap ([B_poll]). Timing-inert: the
    claims only read the clock, and only when a span is present with blame
    armed. *)

val one_sided_read :
  ?span:Farm_obs.Obs.Span.t ->
  'msg t -> src:int -> dst:int -> bytes:int -> (unit -> 'a) -> ('a, error) result
(** [read] executes at the target-NIC DMA instant (the linearization
    point) and its result is carried back with the completion. *)

val one_sided_write :
  'msg t -> src:int -> dst:int -> bytes:int -> (unit -> unit) -> (unit, error) result
(** [apply] mutates target memory at the DMA instant; completion reports
    the NIC hardware ack. NICs ack regardless of configuration — FaRM's
    recovery protocol copes with this by draining logs. *)

(** {1 Doorbell-batched verbs}

    Issue a group of one-sided operations with a single doorbell ring: the
    first descriptor pays {!Params.cpu_rdma_issue}, each subsequent one
    only {!Params.cpu_rdma_doorbell}, and one {!Params.cpu_rdma_poll} reaps
    the whole group's completions. Wire behaviour is identical to issuing
    the operations individually — per-op NIC occupancy, link faults and
    DMA-instant linearization points are unchanged; only the issuing CPU
    cost differs. Both calls block until every operation in the group has
    completed (ack or failure) and return per-descriptor results in order.
    An empty batch returns [[||]] and charges nothing. *)

val one_sided_read_batch :
  ?span:Farm_obs.Obs.Span.t ->
  'msg t ->
  src:int ->
  n:int ->
  dst:(int -> int) ->
  bytes:(int -> int) ->
  read:(int -> 'a) ->
  ('a, error) result array
(** Operation [i] ([0 <= i < n]) reads [bytes i] from [dst i], with
    [read i] executing at its target-DMA instant. The indexed accessors let
    hot callers describe a batch out of reused flat storage with a constant
    number of closures instead of a descriptor per operation. *)

val one_sided_write_batch :
  ?span:Farm_obs.Obs.Span.t ->
  ?on_complete:(int -> (unit, error) result -> unit) ->
  'msg t ->
  src:int ->
  n:int ->
  dst:(int -> int) ->
  bytes:(int -> int) ->
  apply:(int -> unit) ->
  (unit, error) result array
(** Operation [i] writes [bytes i] to [dst i], with [apply i] mutating
    target memory at its DMA instant. [on_complete] fires at each
    operation's individual completion instant (index, result) — the hook
    the commit pipeline uses for COMMIT-PRIMARY's first-ack semantics —
    before the batch-wide completion reap. *)

(** {1 Messaging} *)

val send :
  ?prio:bool ->
  ?transport:[ `Rc | `Ud ] ->
  ?cpu_cost:Time.t ->
  ?flow:int ->
  'msg t ->
  src:int ->
  dst:int ->
  bytes:int ->
  'msg ->
  unit
(** Fire-and-forget. [prio] uses the dedicated path that never queues
    behind bulk traffic; [transport] selects the loss model under link
    faults — [`Rc] (default) retransmits, [`Ud] drops for real; [cpu_cost]
    overrides the default sender-side CPU charge (the lease manager uses
    all three). [flow] (a {!Farm_obs.Tracer.flow_id}; default 0 = none)
    is the message's trace context: while tracing, the send and its
    remote delivery are marked as correlated instant events. It never
    touches the wire format. *)

val call :
  ?timeout:Time.t ->
  ?flow:int ->
  'msg t ->
  src:int ->
  dst:int ->
  bytes:int ->
  'msg ->
  ('msg, error) result
(** Blocking request/response; the receiver's handler gets a [reply]
    closure correlated with this call. [flow] as in {!send}. *)
