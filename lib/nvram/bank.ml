type t = {
  mutable regions : (int, Pagemem.t) Hashtbl.t;
  mutable wiped : bool;
}

let create () = { regions = Hashtbl.create 16; wiped = false }

let alloc t ~key ~size =
  if Hashtbl.mem t.regions key then
    invalid_arg (Printf.sprintf "Bank.alloc: region %d already present" key);
  let m = Pagemem.create size in
  Hashtbl.replace t.regions key m;
  m

let find t ~key = Hashtbl.find_opt t.regions key

let total_bytes t = Hashtbl.fold (fun _ m acc -> acc + Pagemem.length m) t.regions 0

let resident_bytes t = Hashtbl.fold (fun _ m acc -> acc + Pagemem.resident_bytes m) t.regions 0

let wipe t =
  Hashtbl.reset t.regions;
  t.wiped <- true

let is_wiped t = t.wiped
