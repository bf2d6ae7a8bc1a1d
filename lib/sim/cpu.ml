type t = {
  engine : Engine.t;
  busy_until : Time.t array;
  mutable busy_total : Time.t;
  mutable slow_factor : int;
      (* gray-failure hook: every cost is multiplied by this factor, so the
         machine stays alive and correct but k x slower — a thermally
         throttled or contended host rather than a dead one *)
}

let create engine ~threads =
  if threads <= 0 then invalid_arg "Cpu.create: threads must be positive";
  {
    engine;
    busy_until = Array.make threads Time.zero;
    busy_total = Time.zero;
    slow_factor = 1;
  }

let set_slow_factor t k =
  if k < 1 then invalid_arg "Cpu.set_slow_factor: factor must be >= 1";
  t.slow_factor <- k

let threads t = Array.length t.busy_until

(* Index of the thread that frees up first: the central-queue FCFS policy of
   a G/G/k server. *)
let pick t =
  let best = ref 0 in
  for i = 1 to Array.length t.busy_until - 1 do
    if t.busy_until.(i) < t.busy_until.(!best) then best := i
  done;
  !best

(* Claim the earliest-free thread and return the instant [cost] of work
   started on it completes. *)
let acquire t ~cost =
  let cost = if t.slow_factor = 1 then cost else Time.mul_int cost t.slow_factor in
  let i = pick t in
  let start = Time.max (Engine.now t.engine) t.busy_until.(i) in
  let finish = Time.add start cost in
  t.busy_until.(i) <- finish;
  t.busy_total <- Time.add t.busy_total cost;
  finish

let exec t ~cost = Proc.sleep_until (acquire t ~cost)

let exec_bg ?ctx t ~cost fn =
  let finish = acquire t ~cost in
  Engine.schedule t.engine ~at:finish (fun () ->
      match ctx with
      | Some c when Proc.Ctx.is_cancelled c -> ()
      | _ -> fn ())

let queue_delay t =
  let i = pick t in
  Time.max Time.zero (Time.sub t.busy_until.(i) (Engine.now t.engine))

let busy_total t = t.busy_total

(* Utilization over a window via snapshot-and-subtract: dividing lifetime
   [busy_total] by an arbitrary window would over-report for any window not
   starting at time zero, so the caller snapshots at the window's start and
   only the busy time accumulated since then is counted. *)

type snapshot = { snap_at : Time.t; snap_busy : Time.t }

let snapshot t = { snap_at = Engine.now t.engine; snap_busy = t.busy_total }

let utilization t ~since ~until =
  let window = Time.to_s_float (Time.sub until since.snap_at) in
  if window <= 0. then 0.
  else
    Time.to_s_float (Time.sub t.busy_total since.snap_busy)
    /. (window *. float_of_int (threads t))
