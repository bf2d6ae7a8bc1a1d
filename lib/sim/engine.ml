(* Two queues feed the event loop:

   - [ready], a FIFO ring, holds every event scheduled for [now] itself
     (or clamped to it), in scheduling order. Process resumes land here,
     so a large share of events never touches the heap;
   - [heap], ordered by [(at, seq)], holds the events and timers for
     later instants.

   The queues run events in exactly [(at, seq)] order. A heap event whose
   key equals [now] was scheduled while the clock was still below [now]
   (at [now] it would have gone to [ready]), so its seq precedes every
   [ready] entry; and an event scheduled while [ready] drains lands at the
   back of [ready]. [run] therefore takes the heap events due at [now]
   first, then [ready], and only then advances the clock.

   [Time.t] is [int], and this file compares instants with the int
   operators directly: the event loop then makes no call it does not need
   even under [--profile dev], whose [-opaque] stops all cross-module
   inlining. The default release build (dune-workspace) also inlines
   [Heap]'s operations here; only [Heap.grow] stays a call. *)

type t = {
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

let push_heap t ~at fn =
  t.seq <- t.seq + 1;
  Heap.push t.heap ~key:at ~seq:t.seq fn

let schedule t ~at fn = if at <= t.now then push_ready t fn else push_heap t ~at fn

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
    push_heap t ~at (pop_ready t)
  done;
  t.now <- limit

let run ?until t =
  t.stopped <- false;
  let limit = match until with Some l -> l | None -> max_int in
  let continue = ref true in
  while !continue && not t.stopped do
    let h = t.heap in
    let heap_due = (not (Heap.is_empty h)) && Heap.min_key h <= t.now in
    if heap_due || t.r_len > 0 then begin
      if t.now > limit then begin
        rewind t limit;
        continue := false
      end
      else begin
        let fn = if heap_due then Heap.pop_value h else pop_ready t in
        t.events_processed <- t.events_processed + 1;
        fn ()
      end
    end
    else if Heap.is_empty h then continue := false
    else begin
      let at = Heap.min_key h in
      if at > limit then begin
        t.now <- limit;
        continue := false
      end
      else begin
        t.now <- at;
        let fn = Heap.pop_value h in
        t.events_processed <- t.events_processed + 1;
        fn ()
      end
    end
  done;
  match until with
  | Some limit when t.now < limit && not t.stopped -> t.now <- limit
  | _ -> ()

let pending t = Heap.length t.heap + t.r_len
