open Farm_net

(* Thin messaging helpers enforcing precise membership (§5.2): machines in
   the configuration never issue requests to machines outside it. *)

let member st dst = Config.is_member st.State.config dst

let send ?(prio = false) ?transport ?cpu_cost ?flow st ~dst msg =
  if member st dst || dst = st.State.id then
    Fabric.send ~prio ?transport ?cpu_cost ?flow st.State.fabric ~src:st.State.id ~dst
      ~bytes:(Wire.message_bytes msg) msg

let call ?timeout ?flow st ~dst msg : (Wire.message, Fabric.error) result =
  if member st dst || dst = st.State.id then
    Fabric.call ?timeout ?flow st.State.fabric ~src:st.State.id ~dst
      ~bytes:(Wire.message_bytes msg) msg
  else Error `Unreachable

let reply_to reply msg = reply ~bytes:(Wire.message_bytes msg) msg

(* Run [fns] concurrently as child processes of this machine and wait for
   all of them; used to issue commit-protocol writes to all participants in
   parallel. *)
let par_iter st fns =
  let n = List.length fns in
  if n > 0 then begin
    let remaining = ref n in
    let all_done = Farm_sim.Ivar.create () in
    List.iter
      (fun fn ->
        Farm_sim.Proc.spawn ~ctx:st.State.ctx st.State.engine (fun () ->
            fn ();
            decr remaining;
            if !remaining = 0 then Farm_sim.Ivar.fill all_done ()))
      fns;
    Farm_sim.Ivar.read all_done
  end
