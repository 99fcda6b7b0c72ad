module Sim = Vs_sim.Sim
module Proc_id = Vs_net.Proc_id

type config = { period : float; timeout : float }

let default_config = { period = 0.030; timeout = 0.100 }

type t = {
  sim : Sim.t;
  me : Proc_id.t;
  universe : int list;
  config : config;
  send_heartbeat : dst_node:int -> unit;
  on_change : Proc_id.t list -> unit;
  last_heard : float Proc_id.Tbl.t;
  mutable current : Proc_id.t list;
  mutable stopped : bool;
}

let compute_reachable t =
  let now = Sim.now t.sim in
  let fresh =
    Proc_id.Tbl.sorted_bindings t.last_heard
    |> List.filter_map (fun (p, heard) ->
           if now -. heard < t.config.timeout then Some p else None)
  in
  Proc_id.sort (t.me :: fresh)

let refresh t =
  if not t.stopped then begin
    let next = compute_reachable t in
    if not (List.equal Proc_id.equal next t.current) then begin
      let prev = t.current in
      t.current <- next;
      if Sim.obs_on t.sim then begin
        List.iter
          (fun p ->
            Sim.emit t.sim (Vs_obs.Event.Suspect { proc = t.me; peer = p }))
          (Vs_util.Listx.diff ~cmp:Proc_id.compare prev next);
        List.iter
          (fun p ->
            if not (Proc_id.equal p t.me) then
              Sim.emit t.sim
                (Vs_obs.Event.Unsuspect { proc = t.me; peer = p }))
          (Vs_util.Listx.diff ~cmp:Proc_id.compare next prev)
      end;
      t.on_change next
    end
  end

(* Every refresh leaves [current] = [me] plus exactly the fresh entries, and
   an entry only turns fresh in [heartbeat_received].  So while every member
   of [current] is still fresh, [compute_reachable] would return [current]
   and the rebuild can be skipped. *)
let rec all_fresh t now = function
  | [] -> true
  | p :: rest ->
      (Proc_id.equal p t.me
      ||
      match Proc_id.Tbl.find_opt t.last_heard p with
      | Some heard -> now -. heard < t.config.timeout
      | None -> false)
      && all_fresh t now rest

let rec tick t () =
  if not t.stopped then begin
    List.iter
      (fun node ->
        if node <> t.me.Proc_id.node then t.send_heartbeat ~dst_node:node)
      t.universe;
    if not (all_fresh t (Sim.now t.sim) t.current) then refresh t;
    ignore (Sim.after t.sim t.config.period (tick t))
  end

let create sim ~me ~universe ~config ~send_heartbeat ~on_change =
  if config.period <= 0. || config.timeout <= config.period then
    invalid_arg "Fd.create: need 0 < period < timeout";
  let t =
    {
      sim;
      me;
      universe;
      config;
      send_heartbeat;
      on_change;
      last_heard = Proc_id.Tbl.create 16;
      current = [ me ];
      stopped = false;
    }
  in
  (* First tick goes through the event queue so the caller finishes wiring
     up before anything fires. *)
  ignore (Sim.after sim 0. (tick t));
  t

let heartbeat_received t ~from =
  if (not t.stopped) && not (Proc_id.equal from t.me) then begin
    let now = Sim.now t.sim in
    Proc_id.Tbl.replace t.last_heard from now;
    (* [from] is fresh now, so the set only stays put if it already held it. *)
    if not (List.exists (Proc_id.equal from) t.current
            && all_fresh t now t.current) then refresh t
  end

let forget t p =
  if Proc_id.Tbl.mem t.last_heard p then begin
    Proc_id.Tbl.remove t.last_heard p;
    refresh t
  end

let reachable t = t.current

let stop t = t.stopped <- true
