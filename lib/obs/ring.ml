type 'a t = {
  cap : int;
  stride : int;
  fill : 'a;
  mutable tags : 'a array;  (* one per allocated slot *)
  mutable ints : int array;  (* slot s is ints.(s * stride) .. ints.(s * stride + stride - 1) *)
  mutable next : int;  (* the slot the next push claims *)
  mutable total : int;
}

let first_slots = 16

let create ~capacity ~stride fill =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be positive";
  if stride < 1 then invalid_arg "Ring.create: stride must be positive";
  { cap = capacity; stride; fill; tags = [||]; ints = [||]; next = 0; total = 0 }

(* Until the storage reaches the capacity the ring has never wrapped, so
   the live slots are a prefix and growing is two blits. *)
let grow r =
  let n = Array.length r.tags in
  let n' = min r.cap (max first_slots (2 * n)) in
  let tags = Array.make n' r.fill and ints = Array.make (n' * r.stride) 0 in
  Array.blit r.tags 0 tags 0 n;
  Array.blit r.ints 0 ints 0 (n * r.stride);
  r.tags <- tags;
  r.ints <- ints

let push r tag =
  let s = r.next in
  (* [next] stays below the capacity, so a full storage here can grow *)
  if s = Array.length r.tags then grow r;
  r.tags.(s) <- tag;
  r.next <- (if s + 1 = r.cap then 0 else s + 1);
  r.total <- r.total + 1;
  s * r.stride

let set r h i v = r.ints.(h + i) <- v
let get r h i = r.ints.(h + i)

let to_list r f =
  let n = min r.total r.cap in
  let oldest = if r.total > r.cap then r.next else 0 in
  List.init n (fun i ->
      let s = (oldest + i) mod r.cap in
      f r.tags.(s) (s * r.stride))

let stride r = r.stride
let total r = r.total
