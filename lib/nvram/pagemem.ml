(* Paged region memory.

   A region is a fixed array of 4 KB pages. A page is allocated, zeroed, on
   its first write; until then the slot holds the shared [absent] sentinel
   and reads as zeros. Host memory therefore follows the bytes a region has
   ever written, not its size. Pages are ordinary OCaml [Bytes], so the
   saving shows in the GC heap rather than moving out of it. The last page
   is cut short when the size is not a multiple of the page size. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

type t = { size : int; pages : Bytes.t array; mutable resident : int }

let absent = Bytes.empty

let create size =
  if size < 0 then invalid_arg "Pagemem.create";
  { size; pages = Array.make ((size + page_mask) lsr page_bits) absent; resident = 0 }

let length t = t.size
let resident_bytes t = t.resident

let check t ~off ~len name = if off < 0 || len < 0 || off > t.size - len then invalid_arg name

(* Page [i] for writing, allocated on first touch. *)
let page_w t i =
  let p = t.pages.(i) in
  if p != absent then p
  else begin
    let len = min page_size (t.size - (i lsl page_bits)) in
    let p = Bytes.make len '\000' in
    t.pages.(i) <- p;
    t.resident <- t.resident + len;
    p
  end

(* Both copies go page by page; [k] is the run that stays inside one page. *)
let sub t off len =
  check t ~off ~len "Pagemem.sub";
  let dst = Bytes.create len in
  let s = ref off and d = ref 0 in
  while !d < len do
    let po = !s land page_mask in
    let k = min (len - !d) (page_size - po) in
    let p = t.pages.(!s lsr page_bits) in
    if p == absent then Bytes.fill dst !d k '\000' else Bytes.blit p po dst !d k;
    s := !s + k;
    d := !d + k
  done;
  dst

let blit_from_bytes src src_off t dst_off len =
  if src_off < 0 || len < 0 || src_off > Bytes.length src - len then
    invalid_arg "Pagemem.blit_from_bytes";
  check t ~off:dst_off ~len "Pagemem.blit_from_bytes";
  let s = ref src_off and d = ref dst_off and n = ref len in
  while !n > 0 do
    let po = !d land page_mask in
    let k = min !n (page_size - po) in
    Bytes.blit src !s (page_w t (!d lsr page_bits)) po k;
    s := !s + k;
    d := !d + k;
    n := !n - k
  done

(* Word access: the common case stays within one page; a word that crosses
   a boundary goes through an 8-byte buffer. *)
let get_int64_le t off =
  check t ~off ~len:8 "Pagemem.get_int64_le";
  let po = off land page_mask in
  if po <= page_size - 8 then begin
    let p = t.pages.(off lsr page_bits) in
    if p == absent then 0L else Bytes.get_int64_le p po
  end
  else Bytes.get_int64_le (sub t off 8) 0

let set_int64_le t off v =
  check t ~off ~len:8 "Pagemem.set_int64_le";
  let po = off land page_mask in
  if po <= page_size - 8 then Bytes.set_int64_le (page_w t (off lsr page_bits)) po v
  else begin
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    blit_from_bytes b 0 t off 8
  end
