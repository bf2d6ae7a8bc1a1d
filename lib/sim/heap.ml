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
   so the heap never keeps a popped payload alive. *)

type 'a t = {
  mutable ks : int array;
  mutable slots : int array;
  mutable values : 'a array;
  mutable size : int;
}

(* Placeholder for empty slots. It is an immediate, so [values] is never
   created as a flat float array, and it is only ever stored, never read
   back as an ['a]: every slot in use holds a real payload. *)
let dummy () : 'a = Obj.magic 0

let create () = { ks = [||]; slots = [||]; values = [||]; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let cap = Array.length t.slots in
  let new_cap = if cap = 0 then 64 else cap * 2 in
  t.ks <- Array.append t.ks (Array.make (2 * (new_cap - cap)) 0);
  t.slots <- Array.append t.slots (Array.init (new_cap - cap) (fun i -> cap + i));
  t.values <- Array.append t.values (Array.make (new_cap - cap) (dummy ()))

let push t ~key ~seq value =
  if t.size = Array.length t.slots then grow t;
  let ks = t.ks and slots = t.slots in
  let slot = slots.(t.size) in
  t.values.(slot) <- value;
  (* sift up: move parents down into the hole until [(key, seq)] fits *)
  let i = ref t.size in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pk = ks.(2 * parent) and ps = ks.((2 * parent) + 1) in
    if key < pk || (key = pk && seq < ps) then begin
      ks.(2 * !i) <- pk;
      ks.((2 * !i) + 1) <- ps;
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else continue := false
  done;
  ks.(2 * !i) <- key;
  ks.((2 * !i) + 1) <- seq;
  slots.(!i) <- slot;
  t.size <- t.size + 1

let min_key t =
  if t.size = 0 then invalid_arg "Heap.min_key: empty heap";
  t.ks.(0)

let min_seq t =
  if t.size = 0 then invalid_arg "Heap.min_seq: empty heap";
  t.ks.(1)

let pop_value t =
  if t.size = 0 then invalid_arg "Heap.pop_value: empty heap";
  let ks = t.ks and slots = t.slots in
  let top = slots.(0) in
  let value = t.values.(top) in
  t.values.(top) <- dummy ();
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* sift the last entry down from the root *)
    let key = ks.(2 * n) and seq = ks.((2 * n) + 1) and slot = slots.(n) in
    let i = ref 0 in
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
          slots.(!i) <- slots.(!c);
          i := !c
        end
        else continue := false
      end
    done;
    ks.(2 * !i) <- key;
    ks.((2 * !i) + 1) <- seq;
    slots.(!i) <- slot
  end;
  slots.(n) <- top;
  value

let pop t =
  if t.size = 0 then None
  else
    let key = t.ks.(0) in
    Some (key, pop_value t)
