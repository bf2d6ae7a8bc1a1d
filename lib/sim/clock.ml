(* Bounded-uncertainty clocks over the discrete-event engine.

   True time is the engine clock; a machine's handle perturbs it by a
   static offset |off| < eps and reports the interval [now+off-eps,
   now+off+eps], which therefore always contains true time. A static
   offset keeps the service deterministic and allocation-free: reading a
   clock never draws randomness or schedules events, so enabling the
   snapshot protocol cannot perturb an unrelated component's schedule. *)

type t = { engine : Engine.t; eps_ns : int }

let create engine ~eps =
  let eps_ns = Time.to_ns eps in
  if eps_ns < 0 then invalid_arg "Clock.create: negative eps";
  { engine; eps_ns }

let draw_offset t rng =
  if t.eps_ns = 0 then 0 else Rng.int rng ((2 * t.eps_ns) - 1) - (t.eps_ns - 1)

type handle = { c : t; off : int }

let handle t ~offset_ns =
  if t.eps_ns = 0 && offset_ns <> 0 then invalid_arg "Clock.handle: offset without eps";
  if t.eps_ns > 0 && abs offset_ns >= t.eps_ns then
    invalid_arg "Clock.handle: |offset| must be < eps";
  { c = t; off = offset_ns }

let lo h =
  let n = Time.to_ns (Engine.now h.c.engine) + h.off - h.c.eps_ns in
  if n < 0 then 0 else n

let hi h = Time.to_ns (Engine.now h.c.engine) + h.off + h.c.eps_ns

let commit_wait h ~ts =
  (* lo > ts + 2e  <=>  engine_now > ts + 3e - off; sleeping to that
     instant makes even a handle with off = -e show lo > ts. *)
  let target = ts + (3 * h.c.eps_ns) - h.off + 1 in
  let now = Time.to_ns (Engine.now h.c.engine) in
  if target > now then Proc.sleep (Time.ns (target - now))
