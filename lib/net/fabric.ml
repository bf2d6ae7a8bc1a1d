open Farm_sim

type error = [ `Unreachable | `Timeout ]

type 'msg handler = src:int -> reply:(bytes:int -> 'msg -> unit) -> 'msg -> unit

type 'msg machine = {
  id : int;
  nic : Nic.t;
  cpu : Cpu.t;
  obs : Farm_obs.Obs.t;
  mutable alive : bool;
  mutable partition : int;
  mutable on_message : 'msg handler;
}

(* Per-directed-link fault injection (the nemesis hooks): extra one-way
   delay and a packet-loss probability applied to everything routed from
   [src] to [dst]. *)
type link_fault = { mutable extra_delay : Time.t; mutable loss : float }

(* Per-machine gray-NIC state: a slow-but-alive NIC multiplies the flight
   time of every packet entering or leaving the machine and adds a loss
   probability on all of its links. Unlike a partition, nothing is
   unreachable — the machine just serves and generates traffic degraded. *)
type nic_gray = { mutable delay_factor : float; mutable gray_loss : float }

type 'msg t = {
  engine : Engine.t;
  params : Params.t;
  rng : Rng.t;
  mutable machines : 'msg machine option array;
  link_faults : (int * int, link_fault) Hashtbl.t;
  gray_nics : nic_gray Int_tbl.t;
  blackholes : (int * int, unit) Hashtbl.t;
      (* directed dead links: (src, dst) present = packets src->dst vanish
         while dst->src traffic is untouched (asymmetric/partial partition) *)
}

let create engine ~params ~rng =
  {
    engine;
    params;
    rng;
    machines = Array.make 8 None;
    link_faults = Hashtbl.create 16;
    gray_nics = Int_tbl.create 8;
    blackholes = Hashtbl.create 16;
  }

let set_link_fault ?(delay = Time.zero) ?(loss = 0.) t ~src ~dst =
  if loss < 0. || loss > 1. then invalid_arg "Fabric.set_link_fault: loss not in [0,1]";
  Hashtbl.replace t.link_faults (src, dst) { extra_delay = delay; loss }

let clear_link_fault t ~src ~dst = Hashtbl.remove t.link_faults (src, dst)
let clear_link_faults t = Hashtbl.reset t.link_faults

(* The fault tables are empty outside fault runs, and every packet consults
   them: checking for that first skips building and hashing a key. *)
let link_fault t ~src ~dst =
  if Hashtbl.length t.link_faults = 0 then None else Hashtbl.find_opt t.link_faults (src, dst)

let set_nic_gray ?(delay_factor = 1.) ?(loss = 0.) t ~machine =
  if delay_factor < 1. then invalid_arg "Fabric.set_nic_gray: delay_factor must be >= 1";
  if loss < 0. || loss > 1. then invalid_arg "Fabric.set_nic_gray: loss not in [0,1]";
  Int_tbl.replace t.gray_nics machine { delay_factor; gray_loss = loss }

let clear_nic_gray t ~machine = Int_tbl.remove t.gray_nics machine

let nic_gray t ~machine =
  match Int_tbl.find_opt t.gray_nics machine with
  | Some g -> Some (g.delay_factor, g.gray_loss)
  | None -> None

let set_blackhole t ~src ~dst = Hashtbl.replace t.blackholes (src, dst) ()
let blackholed t ~src ~dst = Hashtbl.mem t.blackholes (src, dst)

let clear_gray_faults t =
  Int_tbl.reset t.gray_nics;
  Hashtbl.reset t.blackholes

(* Loss probability of one packet on the directed [src]->[dst] link: the
   injected per-link loss combined with the gray-NIC loss of both
   endpoints (independent drop opportunities). *)
let gray_of t id =
  if Int_tbl.length t.gray_nics = 0 then 0.
  else match Int_tbl.find_opt t.gray_nics id with Some g -> g.gray_loss | None -> 0.

let link_loss t ~src ~dst =
  let l = match link_fault t ~src ~dst with Some f -> f.loss | None -> 0. in
  let gs = gray_of t src and gd = gray_of t dst in
  if gs = 0. && gd = 0. then l else 1. -. ((1. -. l) *. (1. -. gs) *. (1. -. gd))

(* Sample the fate of one packet on the [src]->[dst] link.

   Unreliable-datagram traffic ([send]: leases, gossip, fire-and-forget
   notifications) loses packets for real: [sample_link_ud] returns [None]
   on a loss draw, otherwise the injected extra delay.

   Reliable-connected traffic (the one-sided verbs and [call]) mirrors RDMA
   RC queue pairs: the NIC retransmits lost frames, so injected loss
   surfaces as added latency — one retransmission timeout per lost attempt
   — never as an error. Only machine death and partitions fail a reliable
   operation. *)
let get t id =
  match if id >= 0 && id < Array.length t.machines then t.machines.(id) else None with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Fabric: unknown machine %d" id)

let sample_link_ud t ~src ~dst =
  let extra =
    match link_fault t ~src ~dst with Some f -> f.extra_delay | None -> Time.zero
  in
  let loss = link_loss t ~src ~dst in
  if loss > 0. && Rng.float t.rng < loss then begin
    Farm_obs.Obs.event (get t src).obs Farm_obs.Obs.K_ud_drop ~a:dst ~b:0 ~c:0;
    None
  end
  else Some extra

let retransmit_timeout = Time.us 20

let sample_link_rc t ~src ~dst =
  let extra =
    match link_fault t ~src ~dst with Some f -> f.extra_delay | None -> Time.zero
  in
  let loss = link_loss t ~src ~dst in
  if loss = 0. then extra
  else begin
    let d = ref extra in
    let tries = ref 0 in
    while !tries < 16 && Rng.float t.rng < loss do
      incr tries;
      Farm_obs.Obs.event (get t src).obs Farm_obs.Obs.K_rc_retransmit ~a:dst ~b:0 ~c:0;
      d := Time.add !d (Time.add retransmit_timeout extra)
    done;
    !d
  end

let no_handler ~src:_ ~reply:_ _ = ()

let add_machine ?obs t ~id ~cpu =
  if id < 0 then invalid_arg "Fabric.add_machine: negative id";
  let n = Array.length t.machines in
  if id >= n then begin
    let m = ref n in
    while id >= !m do
      m := !m * 2
    done;
    let machines = Array.make !m None in
    Array.blit t.machines 0 machines 0 n;
    t.machines <- machines
  end;
  (match t.machines.(id) with
  | Some _ -> invalid_arg "Fabric.add_machine: duplicate id"
  | None -> ());
  let obs =
    match obs with
    | Some o -> o
    | None -> Farm_obs.Obs.create t.engine ~machine:id
  in
  let m =
    {
      id;
      nic = Nic.create t.engine ~params:t.params;
      cpu;
      obs;
      alive = true;
      partition = 0;
      on_message = no_handler;
    }
  in
  t.machines.(id) <- Some m

(* Re-register a machine after a restart: fresh NIC pipelines and CPU, back
   on the network. The obs sink survives by default — pre-crash events stay
   in the flight-recorder ring. *)
let reset_machine ?obs t ~id ~cpu =
  match if id >= 0 && id < Array.length t.machines then t.machines.(id) else None with
  | None -> invalid_arg "Fabric.reset_machine: unknown machine"
  | Some m ->
      t.machines.(id) <-
        Some
          {
            m with
            nic = Nic.create t.engine ~params:t.params;
            cpu;
            obs = (match obs with Some o -> o | None -> m.obs);
            alive = true;
            partition = 0;
            on_message = no_handler;
          }

let set_handler t id handler = (get t id).on_message <- handler
let set_alive t id alive = (get t id).alive <- alive
let set_partition t id p = (get t id).partition <- p
let nic t id = (get t id).nic
let cpu t id = (get t id).cpu
let obs t id = (get t id).obs
let engine t = t.engine
let params t = t.params

let reachable t src dst =
  let a = get t src and b = get t dst in
  a.alive && b.alive && a.partition = b.partition
  && (Hashtbl.length t.blackholes = 0 || not (Hashtbl.mem t.blackholes (src, dst)))

let latency t =
  let j = Time.to_ns t.params.Params.fabric_jitter in
  Time.add t.params.Params.fabric_latency (Time.ns (if j > 0 then Rng.int t.rng j else 0))

(* Flight time of one leg on the directed [src]->[dst] link: the sampled
   fabric latency stretched by the gray-NIC delay factors of both
   endpoints (a degraded NIC slows its traffic in both directions). *)
let gray_factor t id =
  if Int_tbl.length t.gray_nics = 0 then 1.
  else match Int_tbl.find_opt t.gray_nics id with Some g -> g.delay_factor | None -> 1.

let leg_latency t ~src ~dst =
  let base = latency t in
  let f = gray_factor t src *. gray_factor t dst in
  if f = 1. then base
  else Time.ns (int_of_float (Float.round (float_of_int (Time.to_ns base) *. f)))

(* Size in bytes of a one-sided request descriptor on the wire. *)
let req_bytes = 32
let ack_bytes = 16

let fail_later t iv =
  Engine.schedule_in t.engine ~after:t.params.Params.failure_timeout (fun () ->
      Ivar.fill_if_empty iv (Error `Unreachable))

(* In-flight part of a one-sided read, from NIC issue to completion
   delivery; no CPU is charged here. [read] runs at the instant the target
   NIC performs the DMA — the operation's linearization point. *)
let read_flight t ~src ~dst ~bytes (read : unit -> 'a) : ('a, error) result Ivar.t =
  let ms = get t src in
  let iv : ('a, error) result Ivar.t = Ivar.create () in
  if src = dst then begin
    (* Local access: no NIC involved; negligible extra cost. *)
    Ivar.fill iv (Ok (read ()))
  end
  else begin
    let d_req = sample_link_rc t ~src ~dst in
    let t_req = Nic.occupy ms.nic ~bytes:req_bytes in
    Engine.schedule t.engine
      ~at:(Time.add t_req (Time.add (leg_latency t ~src ~dst) d_req))
      (fun () ->
        if not (reachable t src dst) then fail_later t iv
        else begin
          let md = get t dst in
          let t_dst = Nic.occupy md.nic ~bytes in
          Engine.schedule t.engine ~at:t_dst (fun () ->
              if not (reachable t src dst) then fail_later t iv
              else begin
                let v = read () in
                let d_cpl = sample_link_rc t ~src:dst ~dst:src in
                Engine.schedule t.engine
                  ~at:(Time.add t_dst (Time.add (leg_latency t ~src:dst ~dst:src) d_cpl))
                  (fun () ->
                    (* The completion travels dst->src: a directed blackhole
                       on that leg swallows it and the RC QP eventually
                       errors out — unlike a classic partition, where
                       in-flight responses still arrive. *)
                    if blackholed t ~src:dst ~dst:src then fail_later t iv
                    else if ms.alive then begin
                      let t_cpl = Nic.occupy ms.nic ~bytes in
                      Engine.schedule t.engine ~at:t_cpl (fun () ->
                          Ivar.fill_if_empty iv (Ok v))
                    end)
              end)
        end)
  end;
  iv

(* {1 Blame carving}

   When the caller passes its transaction span, a blocking verb attributes
   its own elapsed wall-clock to three consecutive sub-intervals: the CPU
   spent issuing descriptors/doorbells (nic-issue), the wait for the
   completion (propagation — wire flight, NIC occupancy/serialization,
   retransmissions, remote DMA), and the completion reap / RPC receive
   (poll). The intervals are measured around the work itself, so they are
   disjoint and exhaustive over the verb's duration — the exactness the
   span's blame accounting relies on. With no span, nothing here reads the
   clock. *)

let ns_now t = Time.to_ns (Engine.now t.engine)
let mark t span = match span with None -> 0 | Some _ -> ns_now t

let claim t span b t0 =
  match span with
  | None -> 0
  | Some sp ->
      let n = ns_now t in
      Farm_obs.Obs.Span.claim sp b (n - t0);
      n

(* One-sided RDMA read: issue, block on the completion, reap it. Charges
   CPU only at [src]. *)
let one_sided_read ?span t ~src ~dst ~bytes (read : unit -> 'a) : ('a, error) result =
  let ms = get t src in
  Farm_obs.Obs.event ms.obs Farm_obs.Obs.K_rdma_read ~a:dst ~b:bytes ~c:0;
  let t0 = mark t span in
  Cpu.exec ms.cpu ~cost:t.params.Params.cpu_rdma_issue;
  let t1 = claim t span Farm_obs.Obs.B_nic_issue t0 in
  let r = Ivar.read (read_flight t ~src ~dst ~bytes read) in
  let t2 = claim t span Farm_obs.Obs.B_propagation t1 in
  (match r with
  | Ok _ ->
      Cpu.exec ms.cpu ~cost:t.params.Params.cpu_rdma_poll;
      ignore (claim t span Farm_obs.Obs.B_poll t2)
  | Error _ -> ());
  r

(* In-flight part of a one-sided write with hardware ack: [apply] mutates
   target memory at the DMA instant; the target CPU is never involved. *)
let write_flight t ~src ~dst ~bytes (apply : unit -> unit) : (unit, error) result Ivar.t =
  let ms = get t src in
  let iv : (unit, error) result Ivar.t = Ivar.create () in
  if src = dst then begin
    apply ();
    Ivar.fill iv (Ok ())
  end
  else begin
    let d_req = sample_link_rc t ~src ~dst in
    let t_req = Nic.occupy ms.nic ~bytes in
    Engine.schedule t.engine
      ~at:(Time.add t_req (Time.add (leg_latency t ~src ~dst) d_req))
      (fun () ->
        if not (reachable t src dst) then fail_later t iv
        else begin
          let md = get t dst in
          let t_dst = Nic.occupy md.nic ~bytes in
          Engine.schedule t.engine ~at:t_dst (fun () ->
              if not (reachable t src dst) then fail_later t iv
              else begin
                apply ();
                (* Hardware ack generated by the target NIC. *)
                let d_ack = sample_link_rc t ~src:dst ~dst:src in
                Engine.schedule t.engine
                  ~at:(Time.add t_dst (Time.add (leg_latency t ~src:dst ~dst:src) d_ack))
                  (fun () ->
                    (* Ack leg dst->src: see the blackhole note in
                       [read_flight] — the write itself has already been
                       applied at the target, the issuer just never learns. *)
                    if blackholed t ~src:dst ~dst:src then fail_later t iv
                    else if ms.alive then begin
                      let t_cpl = Nic.occupy ms.nic ~bytes:ack_bytes in
                      Engine.schedule t.engine ~at:t_cpl (fun () ->
                          Ivar.fill_if_empty iv (Ok ()))
                    end)
              end)
        end)
  end;
  iv

let one_sided_write ?span t ~src ~dst ~bytes (apply : unit -> unit) : (unit, error) result =
  let ms = get t src in
  Farm_obs.Obs.event ms.obs Farm_obs.Obs.K_rdma_write ~a:dst ~b:bytes ~c:0;
  let t0 = mark t span in
  Cpu.exec ms.cpu ~cost:t.params.Params.cpu_rdma_issue;
  let t1 = claim t span Farm_obs.Obs.B_nic_issue t0 in
  let r = Ivar.read (write_flight t ~src ~dst ~bytes apply) in
  let t2 = claim t span Farm_obs.Obs.B_propagation t1 in
  (match r with
  | Ok _ ->
      Cpu.exec ms.cpu ~cost:t.params.Params.cpu_rdma_poll;
      ignore (claim t span Farm_obs.Obs.B_poll t2)
  | Error _ -> ());
  r

(* {1 Doorbell-batched verbs}

   A batch issues a group of one-sided operations from one thread with a
   single doorbell ring: the first work-queue entry pays the full
   [cpu_rdma_issue], each subsequent one only [cpu_rdma_doorbell], and the
   completions of the whole group are reaped with a single [cpu_rdma_poll]
   (one completion-queue sweep) instead of one per operation.

   Everything on the wire is unchanged from the single-op verbs: each
   operation occupies the NIC pipelines individually, samples its own
   link-fault fate, and linearizes at its own target-DMA instant — so a
   lossy link delays only the operations routed over it, and failures
   surface per operation. The batch is a CPU/issue optimization, not a
   semantic change. *)

let batch_issue_cost t i =
  if i = 0 then t.params.Params.cpu_rdma_issue else t.params.Params.cpu_rdma_doorbell

let reap t (ms : 'msg machine) results =
  if Array.exists (function Ok _ -> true | Error _ -> false) results then
    Cpu.exec ms.cpu ~cost:t.params.Params.cpu_rdma_poll;
  results

let record_batch (ms : 'msg machine) ~n bytes_of =
  if n > 0 then begin
    let total = ref 0 in
    for i = 0 to n - 1 do
      total := !total + bytes_of i
    done;
    Farm_obs.Obs.event ms.obs Farm_obs.Obs.K_rdma_batch ~a:n ~b:!total ~c:0
  end

(* The primary batch entry points take indexed accessors ([dst i],
   [bytes i], [read i] / [apply i] for [0 <= i < n]) so hot callers can
   describe a group straight out of reused flat storage, with a constant
   number of closures per batch instead of a descriptor tuple per
   operation. The list forms below are veneers. *)

let one_sided_read_batch_fn ?span t ~src ~n ~(dst : int -> int) ~(bytes : int -> int)
    ~(read : int -> 'a) : ('a, error) result array =
  let ms = get t src in
  record_batch ms ~n bytes;
  let t0 = mark t span in
  let flights =
    Array.init n (fun i ->
        let d = dst i and b = bytes i in
        Farm_obs.Obs.event ms.obs Farm_obs.Obs.K_rdma_read ~a:d ~b ~c:0;
        Cpu.exec ms.cpu ~cost:(batch_issue_cost t i);
        read_flight t ~src ~dst:d ~bytes:b (fun () -> read i))
  in
  let t1 = claim t span Farm_obs.Obs.B_nic_issue t0 in
  let results = Array.map Ivar.read flights in
  let t2 = claim t span Farm_obs.Obs.B_propagation t1 in
  let results = reap t ms results in
  ignore (claim t span Farm_obs.Obs.B_poll t2);
  results

let one_sided_write_batch_fn ?span ?on_complete t ~src ~n ~(dst : int -> int)
    ~(bytes : int -> int) ~(apply : int -> unit) : (unit, error) result array =
  let ms = get t src in
  record_batch ms ~n bytes;
  let t0 = mark t span in
  let flights =
    Array.init n (fun i ->
        let d = dst i and b = bytes i in
        Farm_obs.Obs.event ms.obs Farm_obs.Obs.K_rdma_write ~a:d ~b ~c:0;
        Cpu.exec ms.cpu ~cost:(batch_issue_cost t i);
        let iv = write_flight t ~src ~dst:d ~bytes:b (fun () -> apply i) in
        (match on_complete with Some f -> Ivar.on_fill iv (fun r -> f i r) | None -> ());
        iv)
  in
  let t1 = claim t span Farm_obs.Obs.B_nic_issue t0 in
  let results = Array.map Ivar.read flights in
  let t2 = claim t span Farm_obs.Obs.B_propagation t1 in
  let results = reap t ms results in
  ignore (claim t span Farm_obs.Obs.B_poll t2);
  results

let one_sided_read_batch t ~src (descs : (int * int * (unit -> 'a)) list) :
    ('a, error) result array =
  let a = Array.of_list descs in
  one_sided_read_batch_fn t ~src ~n:(Array.length a)
    ~dst:(fun i ->
      let d, _, _ = a.(i) in
      d)
    ~bytes:(fun i ->
      let _, b, _ = a.(i) in
      b)
    ~read:(fun i ->
      let _, _, r = a.(i) in
      r ())

let one_sided_write_batch ?on_complete t ~src (descs : (int * int * (unit -> unit)) list) :
    (unit, error) result array =
  let a = Array.of_list descs in
  one_sided_write_batch_fn ?on_complete t ~src ~n:(Array.length a)
    ~dst:(fun i ->
      let d, _, _ = a.(i) in
      d)
    ~bytes:(fun i ->
      let _, b, _ = a.(i) in
      b)
    ~apply:(fun i ->
      let _, _, f = a.(i) in
      f ())

let deliver t ~src ~dst ~prio ~bytes ~flow msg ~reply =
  let route at =
    Engine.schedule t.engine ~at (fun () ->
        if reachable t src dst then begin
          let md = get t dst in
          let t_dst =
            if prio then Nic.occupy_priority md.nic ~bytes else Nic.occupy md.nic ~bytes
          in
          Engine.schedule t.engine ~at:t_dst (fun () ->
              if md.alive then begin
                if flow <> 0 then
                  Farm_obs.Obs.event md.obs Farm_obs.Obs.K_msg_recv ~a:src ~b:bytes ~c:flow;
                md.on_message ~src ~reply msg
              end)
        end)
  in
  route

(* Fire-and-forget message. The receiver's handler runs at NIC-delivery
   time in "interrupt context": it must charge its own CPU before doing real
   work. Most messaging rides RDMA writes over reliable-connected QPs
   ([`Rc], the default); only the lease protocol uses unreliable datagrams
   ([`Ud]) and can actually lose packets (§3). *)
let send ?(prio = false) ?(transport = `Rc) ?cpu_cost ?(flow = 0) t ~src ~dst ~bytes msg =
  let ms = get t src in
  Farm_obs.Obs.event ms.obs
    (match transport with `Ud -> Farm_obs.Obs.K_send_ud | `Rc -> Farm_obs.Obs.K_send)
    ~a:dst ~b:bytes ~c:flow;
  let cost = match cpu_cost with Some c -> c | None -> t.params.Params.cpu_rpc_send in
  if Time.( > ) cost Time.zero then Cpu.exec ms.cpu ~cost;
  match
    match transport with
    | `Ud -> sample_link_ud t ~src ~dst
    | `Rc -> Some (sample_link_rc t ~src ~dst)
  with
  | None -> ()  (* dropped on the wire; fire-and-forget senders never know *)
  | Some d ->
      let t_tx =
        if prio then Nic.occupy_priority ms.nic ~bytes else Nic.occupy ms.nic ~bytes
      in
      let no_reply ~bytes:_ _ = () in
      (deliver t ~src ~dst ~prio ~bytes ~flow msg ~reply:no_reply)
        (Time.add t_tx (Time.add (leg_latency t ~src ~dst) d))

(* Blocking request/response. The receiver handler is given a [reply]
   closure; calling it routes the response back and wakes the caller. *)
let call ?span ?(prio = false) ?timeout ?(flow = 0) t ~src ~dst ~bytes msg :
    ('msg, error) result =
  let ms = get t src in
  Farm_obs.Obs.event ms.obs Farm_obs.Obs.K_call ~a:dst ~b:bytes ~c:flow;
  let tm0 = mark t span in
  Cpu.exec ms.cpu ~cost:t.params.Params.cpu_rpc_send;
  let tm1 = claim t span Farm_obs.Obs.B_nic_issue tm0 in
  let iv = Ivar.create () in
  let reply ~bytes:resp_bytes resp =
    let md = get t dst in
    if md.alive then begin
      let d = sample_link_rc t ~src:dst ~dst:src in
      let t_tx =
        if prio then Nic.occupy_priority md.nic ~bytes:resp_bytes
        else Nic.occupy md.nic ~bytes:resp_bytes
      in
      Engine.schedule t.engine
        ~at:(Time.add t_tx (Time.add (leg_latency t ~src:dst ~dst:src) d))
        (fun () ->
          (* Reply leg dst->src: a directed blackhole swallows the response
             (the asymmetric half-link), so the caller times out via
             [fail_later] instead of hanging. In-flight replies still cross
             classic partitions, as before. *)
          if blackholed t ~src:dst ~dst:src then fail_later t iv
          else if ms.alive then begin
            let t_rx =
              if prio then Nic.occupy_priority ms.nic ~bytes:resp_bytes
              else Nic.occupy ms.nic ~bytes:resp_bytes
            in
            Engine.schedule t.engine ~at:t_rx (fun () -> Ivar.fill_if_empty iv (Ok resp))
          end)
    end
  in
  let t_tx = if prio then Nic.occupy_priority ms.nic ~bytes else Nic.occupy ms.nic ~bytes in
  if not (reachable t src dst) then fail_later t iv
  else begin
    let d = sample_link_rc t ~src ~dst in
    (deliver t ~src ~dst ~prio ~bytes ~flow msg ~reply)
      (Time.add t_tx (Time.add (leg_latency t ~src ~dst) d))
  end;
  (match timeout with
  | Some d ->
      Engine.schedule_in t.engine ~after:d (fun () -> Ivar.fill_if_empty iv (Error `Timeout))
  | None -> ());
  let r = Ivar.read iv in
  let tm2 = claim t span Farm_obs.Obs.B_propagation tm1 in
  (match r with
  | Ok _ ->
      Cpu.exec ms.cpu ~cost:t.params.Params.cpu_rpc_recv;
      ignore (claim t span Farm_obs.Obs.B_poll tm2)
  | Error _ -> ());
  r
