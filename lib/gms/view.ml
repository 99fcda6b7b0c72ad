module Proc_id = Vs_net.Proc_id

module Id = struct
  type t = Vs_obs.Event.vid = { epoch : int; proposer : Proc_id.t }
  [@@deriving eq, ord, show]

  let initial proposer = { epoch = 0; proposer }

  let make ~epoch ~proposer =
    if epoch < 0 then invalid_arg "View.Id.make: negative epoch";
    { epoch; proposer }

  let to_string = Vs_obs.Event.vid_to_string
end

type t = { id : Id.t; members : Proc_id.t list } [@@deriving eq, show]

let make id members =
  match Proc_id.sort members with
  | [] -> invalid_arg "View.make: empty membership"
  | members -> { id; members }

let singleton p = make (Id.initial p) [ p ]

let mem p t = List.exists (Proc_id.equal p) t.members

let size t = List.length t.members

let coordinator t =
  match Proc_id.min_member t.members with
  | Some p -> p
  | None -> assert false (* members is non-empty by construction *)

let to_string t =
  Printf.sprintf "%s{%s}" (Id.to_string t.id)
    (String.concat "," (List.map Proc_id.to_string t.members))
