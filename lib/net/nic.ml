open Farm_sim

type t = {
  engine : Engine.t;
  params : Params.t;
  pipes : Time.t array;
  mutable ops : int;
  mutable bytes_total : int;
}

let create engine ~params =
  {
    engine;
    params;
    pipes = Array.make params.Params.nics_per_machine Time.zero;
    ops = 0;
    bytes_total = 0;
  }

let service_time t ~bytes =
  Time.add t.params.Params.nic_msg_ns
    (Time.ns (bytes * t.params.Params.nic_byte_ns_x1000 / 1000))

(* Claim the least-busy NIC pipe; returns the instant at which the NIC
   finishes processing this message. *)
let occupy t ~bytes =
  t.ops <- t.ops + 1;
  t.bytes_total <- t.bytes_total + bytes;
  let best = ref 0 in
  for i = 1 to Array.length t.pipes - 1 do
    if t.pipes.(i) < t.pipes.(!best) then best := i
  done;
  let start = Time.max (Engine.now t.engine) t.pipes.(!best) in
  let finish = Time.add start (service_time t ~bytes) in
  t.pipes.(!best) <- finish;
  finish

(* Priority path (dedicated queue pair): pays the service time but does not
   queue behind, nor delay, regular traffic. *)
let occupy_priority t ~bytes =
  t.ops <- t.ops + 1;
  t.bytes_total <- t.bytes_total + bytes;
  Time.add (Engine.now t.engine) (service_time t ~bytes)

let ops t = t.ops
let bytes_total t = t.bytes_total
