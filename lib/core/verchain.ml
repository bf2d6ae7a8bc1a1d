(* Per-object version chains (see verchain.mli).

   Chains hang off a per-offset hash table; each node holds an exact-size
   copy of its version's value. Offsets are region-relative, and one [t]
   serves one replica, so no synchronisation is needed — all access
   happens on the owning machine's simulated CPU. *)

type node = {
  n_version : int;
  n_ts : int;
  n_value : Bytes.t;  (* private copy: never handed out, never written *)
  n_allocated : bool;
  mutable n_next : node option;  (* next older version *)
}

type t = {
  mutable floor : int;
  chains : (int, node) Hashtbl.t;  (* offset -> newest archived node *)
  head : (int, int) Hashtbl.t;  (* offset -> commit ts of the in-memory head *)
  mutable live : int;
}

let create ~floor = { floor; chains = Hashtbl.create 64; head = Hashtbl.create 64; live = 0 }

let floor t = t.floor
let raise_floor t f = if f > t.floor then t.floor <- f
let head_ts t ~off = match Hashtbl.find_opt t.head off with Some ts -> ts | None -> 0
let set_head_ts t ~off ts = Hashtbl.replace t.head off ts
let nodes_live t = t.live

let node t ~version ~ts ~allocated value next =
  t.live <- t.live + 1;
  {
    n_version = version;
    n_ts = ts;
    n_value = Bytes.copy value;
    n_allocated = allocated;
    n_next = next;
  }

let archive t ~off ~version ~ts ~allocated value =
  match Hashtbl.find_opt t.chains off with
  | None -> Hashtbl.replace t.chains off (node t ~version ~ts ~allocated value None)
  | Some head ->
      if version > head.n_version then
        Hashtbl.replace t.chains off (node t ~version ~ts ~allocated value (Some head))
      else begin
        (* out-of-order arrival (backup truncation order can invert per
           object): walk to the sorted position, skipping duplicates *)
        let rec insert prev =
          match prev.n_next with
          | Some nx when version < nx.n_version -> insert nx
          | Some nx when version = nx.n_version -> ()
          | tail ->
              if version <> prev.n_version then
                prev.n_next <- Some (node t ~version ~ts ~allocated value tail)
        in
        insert head
      end

let find t ~off ~ts =
  let rec newest_at_or_below = function
    | None -> None
    | Some n -> if n.n_ts <= ts then Some n else newest_at_or_below n.n_next
  in
  match newest_at_or_below (Hashtbl.find_opt t.chains off) with
  | None -> None
  | Some n -> Some (n.n_version, Bytes.copy n.n_value, n.n_allocated)

let trim t ~wm =
  if wm <= t.floor then 0
  else begin
    let dropped = ref 0 in
    Hashtbl.iter
      (fun _off head ->
        (* keep nodes with ts >= wm plus the newest older one (it serves
           reads in [wm, next newer ts)); drop everything below it *)
        let rec cut n =
          if n.n_ts < wm then begin
            let rec count = function
              | None -> ()
              | Some older ->
                  incr dropped;
                  count older.n_next
            in
            count n.n_next;
            n.n_next <- None
          end
          else match n.n_next with None -> () | Some nx -> cut nx
        in
        cut head)
      t.chains;
    t.live <- t.live - !dropped;
    t.floor <- wm;
    !dropped
  end
