(* Three queues feed the event loop:

   - [ready], a FIFO ring, holds every event scheduled for [now] itself
     (or clamped to it), in scheduling order. Process resumes land here;
   - [wheel] ([Wheel]) holds the events [schedule] files for a later
     instant within its 262 us horizon: most of the rest;
   - [heap], ordered by [(at, seq)], holds every cancellable timer (it
     removes by handle), the events past the wheel's horizon, and those
     the wheel refuses after [run ~until] winds the clock back.

   The queues run events in exactly [(at, seq)] order. [run] takes the
   smaller [(at, seq)] of the wheel's head and the heap's root, so where an
   event was filed never changes when it runs. A queued event whose key
   equals [now] was scheduled while the clock was still below [now] (at
   [now] it would have gone to [ready]), so its seq precedes every [ready]
   entry; and an event scheduled while [ready] drains lands at the back of
   [ready]. [run] therefore takes the queued events due at [now] first,
   then [ready], and only then advances the clock.

   [Time.t] is [int], and this file compares instants with the int
   operators directly: the event loop then makes no call it does not need
   even under [--profile dev], whose [-opaque] stops all cross-module
   inlining. The default release build (dune-workspace) also inlines
   [Heap]'s and [Wheel]'s operations here; only their [grow]s stay calls. *)

type t = {
  wheel : (unit -> unit) Wheel.t;
  heap : (unit -> unit) Heap.t;
  mutable ready : (unit -> unit) array;  (* ring, capacity a power of two *)
  mutable r_head : int;
  mutable r_len : int;
  mutable now : Time.t;
  mutable seq : int;
  mutable stopped : bool;
  mutable events_processed : int;
}

let empty_slot () = ()

let create () =
  {
    wheel = Wheel.create ~empty:empty_slot;
    heap = Heap.create ();
    ready = Array.make 64 empty_slot;
    r_head = 0;
    r_len = 0;
    now = Time.zero;
    seq = 0;
    stopped = false;
    events_processed = 0;
  }

let now t = t.now

let push_ready t fn =
  let cap = Array.length t.ready in
  if t.r_len = cap then begin
    let ready = Array.make (2 * cap) empty_slot in
    for i = 0 to cap - 1 do
      ready.(i) <- t.ready.((t.r_head + i) land (cap - 1))
    done;
    t.ready <- ready;
    t.r_head <- 0
  end;
  t.ready.((t.r_head + t.r_len) land (Array.length t.ready - 1)) <- fn;
  t.r_len <- t.r_len + 1

let pop_ready t =
  let fn = t.ready.(t.r_head) in
  t.ready.(t.r_head) <- empty_slot;
  t.r_head <- (t.r_head + 1) land (Array.length t.ready - 1);
  t.r_len <- t.r_len - 1;
  fn

let schedule t ~at fn =
  if at <= t.now then push_ready t fn
  else begin
    t.seq <- t.seq + 1;
    if not (Wheel.push t.wheel ~now:t.now ~key:at ~seq:t.seq fn) then
      Heap.push t.heap ~key:at ~seq:t.seq fn
  end

let schedule_in t ~after fn = schedule t ~at:(t.now + after) fn

type timer = Heap.handle

let timer t ~after fn =
  if after <= 0 then invalid_arg "Engine.timer: delay must be positive";
  t.seq <- t.seq + 1;
  Heap.push_handle t.heap ~key:(t.now + after) ~seq:t.seq fn

let cancel t timer = Heap.remove t.heap timer

let stop t = t.stopped <- true

let events_processed t = t.events_processed

(* [run ~until] below [now] winds the clock back. [ready] holds events due
   at the old [now], so they move to the heap first, behind every event
   already queued for that instant. *)
let rewind t limit =
  let at = t.now in
  while t.r_len > 0 do
    t.seq <- t.seq + 1;
    Heap.push t.heap ~key:at ~seq:t.seq (pop_ready t)
  done;
  t.now <- limit

(* Whether the next queued event, the smaller [(at, seq)] of the wheel's
   head and the heap's root, is the wheel's. *)
let wheel_first t =
  let w = t.wheel and h = t.heap in
  (not (Wheel.is_empty w))
  && (Heap.is_empty h
     ||
     let a = Wheel.min_key w and b = Heap.min_key h in
     a < b || (a = b && Wheel.min_seq w < Heap.min_seq h))

let run ?until t =
  t.stopped <- false;
  let limit = match until with Some l -> l | None -> max_int in
  let continue = ref true in
  while !continue && not t.stopped do
    let from_wheel = wheel_first t in
    let queued = from_wheel || not (Heap.is_empty t.heap) in
    let at =
      if from_wheel then Wheel.min_key t.wheel
      else if queued then Heap.min_key t.heap
      else max_int
    in
    (* no queued key is below [now], so a due event is one at [now] *)
    let due = queued && at <= t.now in
    if (due || t.r_len > 0) && t.now > limit then begin
      rewind t limit;
      continue := false
    end
    else if (not due) && t.r_len = 0 && ((not queued) || at > limit) then begin
      if queued then t.now <- limit;
      continue := false
    end
    else begin
      let fn =
        if (not due) && t.r_len > 0 then pop_ready t
        else begin
          t.now <- at;
          if from_wheel then Wheel.pop_value t.wheel else Heap.pop_value t.heap
        end
      in
      t.events_processed <- t.events_processed + 1;
      fn ()
    end
  done;
  match until with
  | Some limit when t.now < limit && not t.stopped -> t.now <- limit
  | _ -> ()

let pending t = Wheel.length t.wheel + Heap.length t.heap + t.r_len
