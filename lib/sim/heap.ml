(* Structure-of-arrays 4-ary min-heap. Heap position [i] holds an entry's
   key in [ks.(2i)], its tie-breaking sequence number in [ks.(2i + 1)], and
   in [slots.(i)] the index of the slot of [values] that holds its payload.
   A payload never moves while its entry is queued, so sifting moves only
   ints: no write barrier, no allocation. Four children per node halve the
   depth of a binary heap, and with keys and seqs interleaved the four
   children of a node share one or two cache lines, which is what a deep
   event queue pays for.

   Positions [size, capacity) of [slots] hold the free slot indices, so a
   push takes [slots.(size)] and a pop returns the root's slot to the
   position it vacates. A freed slot is overwritten with [dummy] at once,
   so the heap never keeps a popped payload alive.

   Removal by handle: [where.(s)] is the position of slot [s]'s entry,
   kept up to date by every move, and [stamps.(s)] counts how often [s]
   has been freed. A handle packs a slot with the stamp it had when its
   entry was pushed, so once that entry is popped or removed the stamps
   differ and the handle is inert, whatever the slot holds now. *)

type 'a t = {
  mutable ks : int array;
  mutable slots : int array;
  mutable where : int array;
  mutable stamps : int array;
  mutable values : 'a array;
  mutable size : int;
}

type handle = int

(* A handle is [stamp lsl slot_bits lor slot]; stamps wrap at
   [stamp_mask], which keeps every handle a non-negative 63-bit int. *)
let slot_bits = 31
let slot_mask = (1 lsl slot_bits) - 1
let stamp_mask = slot_mask

(* Placeholder for empty slots. It is an immediate, so [values] is never
   created as a flat float array, and it is only ever stored, never read
   back as an ['a]: every slot in use holds a real payload. *)
let dummy () : 'a = Obj.magic 0

let create () =
  { ks = [||]; slots = [||]; where = [||]; stamps = [||]; values = [||]; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let cap = Array.length t.slots in
  let new_cap = if cap = 0 then 64 else cap * 2 in
  t.ks <- Array.append t.ks (Array.make (2 * (new_cap - cap)) 0);
  t.slots <- Array.append t.slots (Array.init (new_cap - cap) (fun i -> cap + i));
  t.where <- Array.append t.where (Array.make (new_cap - cap) 0);
  t.stamps <- Array.append t.stamps (Array.make (new_cap - cap) 0);
  t.values <- Array.append t.values (Array.make (new_cap - cap) (dummy ()))

(* Fill the hole at position [i] with the entry [(key, seq, slot)], moving
   parents down until it fits. *)
let sift_up t i ~key ~seq ~slot =
  let ks = t.ks and slots = t.slots and where = t.where in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pk = ks.(2 * parent) and ps = ks.((2 * parent) + 1) in
    if key < pk || (key = pk && seq < ps) then begin
      ks.(2 * !i) <- pk;
      ks.((2 * !i) + 1) <- ps;
      let s = slots.(parent) in
      slots.(!i) <- s;
      where.(s) <- !i;
      i := parent
    end
    else continue := false
  done;
  ks.(2 * !i) <- key;
  ks.((2 * !i) + 1) <- seq;
  slots.(!i) <- slot;
  where.(slot) <- !i

(* Fill the hole at position [i] of a heap of [t.size] entries with
   [(key, seq, slot)], moving the smallest child up until it fits. *)
let sift_down t i ~key ~seq ~slot =
  let ks = t.ks and slots = t.slots and where = t.where and n = t.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let first = (4 * !i) + 1 in
    if first >= n then continue := false
    else begin
      (* the smallest of the (up to four) children *)
      let c = ref first and ck = ref ks.(2 * first) and cs = ref ks.((2 * first) + 1) in
      let last = if first + 3 < n then first + 3 else n - 1 in
      for j = first + 1 to last do
        let k = ks.(2 * j) in
        if k < !ck || (k = !ck && ks.((2 * j) + 1) < !cs) then begin
          c := j;
          ck := k;
          cs := ks.((2 * j) + 1)
        end
      done;
      if !ck < key || (!ck = key && !cs < seq) then begin
        ks.(2 * !i) <- !ck;
        ks.((2 * !i) + 1) <- !cs;
        let s = slots.(!c) in
        slots.(!i) <- s;
        where.(s) <- !i;
        i := !c
      end
      else continue := false
    end
  done;
  ks.(2 * !i) <- key;
  ks.((2 * !i) + 1) <- seq;
  slots.(!i) <- slot;
  where.(slot) <- !i

let push_handle t ~key ~seq value =
  if t.size = Array.length t.slots then grow t;
  let slot = t.slots.(t.size) in
  t.values.(slot) <- value;
  sift_up t t.size ~key ~seq ~slot;
  t.size <- t.size + 1;
  (t.stamps.(slot) lsl slot_bits) lor slot

let push t ~key ~seq value = ignore (push_handle t ~key ~seq value : handle)

(* Release slot [slot], whose entry has just left the heap, which now
   holds [t.size] entries: clear its payload, make its handles stale and
   return it to the free positions. *)
let free t slot =
  t.values.(slot) <- dummy ();
  t.stamps.(slot) <- (t.stamps.(slot) + 1) land stamp_mask;
  t.slots.(t.size) <- slot

(* Take the entry at position [i] out: the last entry fills the hole,
   sifted whichever way it has to go. *)
let take t i =
  let slot = t.slots.(i) in
  let n = t.size - 1 in
  t.size <- n;
  if i < n then begin
    let ks = t.ks in
    let key = ks.(2 * n) and seq = ks.((2 * n) + 1) and last = t.slots.(n) in
    let parent = (i - 1) / 4 in
    if
      i > 0
      && (key < ks.(2 * parent) || (key = ks.(2 * parent) && seq < ks.((2 * parent) + 1)))
    then sift_up t i ~key ~seq ~slot:last
    else sift_down t i ~key ~seq ~slot:last
  end;
  free t slot

let remove t handle =
  let slot = handle land slot_mask in
  if slot < Array.length t.stamps && t.stamps.(slot) = handle lsr slot_bits then
    take t t.where.(slot)

let min_key t =
  if t.size = 0 then invalid_arg "Heap.min_key: empty heap";
  t.ks.(0)

let min_seq t =
  if t.size = 0 then invalid_arg "Heap.min_seq: empty heap";
  t.ks.(1)

let pop_value t =
  if t.size = 0 then invalid_arg "Heap.pop_value: empty heap";
  let value = t.values.(t.slots.(0)) in
  take t 0;
  value

let pop t =
  if t.size = 0 then None
  else
    let key = t.ks.(0) in
    Some (key, pop_value t)
