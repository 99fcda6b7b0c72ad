module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Listx = Vs_util.Listx

module Subview_id = struct
  type t =
    | Fresh of Proc_id.t
    | Merged of { view : View.Id.t; seq : int }
    | Split of { base : t; view : View.Id.t }
  [@@deriving eq, ord, show]

  let rec to_string = function
    | Fresh p -> "sv:" ^ Proc_id.to_string p
    | Merged { view; seq } ->
        Printf.sprintf "sv:%s/%d" (View.Id.to_string view) seq
    | Split { base; view } ->
        Printf.sprintf "%s|%s" (to_string base) (View.Id.to_string view)
end

module Svset_id = struct
  type t =
    | Fresh of Proc_id.t
    | Merged of { view : View.Id.t; seq : int }
    | Split of { base : t; view : View.Id.t }
  [@@deriving eq, ord, show]

  let rec to_string = function
    | Fresh p -> "ss:" ^ Proc_id.to_string p
    | Merged { view; seq } ->
        Printf.sprintf "ss:%s/%d" (View.Id.to_string view) seq
    | Split { base; view } ->
        Printf.sprintf "%s|%s" (to_string base) (View.Id.to_string view)
end

type subview = { sv_id : Subview_id.t; sv_members : Proc_id.t list }
[@@deriving eq, show]

type svset = { ss_id : Svset_id.t; ss_subviews : Subview_id.t list }
[@@deriving eq, show]

type structure = { subviews : subview list; svsets : svset list }
[@@deriving eq, show]

type t = { view : View.t; structure : structure; eseq : int } [@@deriving eq, show]

type member_tag = { m_sv : Subview_id.t; m_ss : Svset_id.t }

type member_report = { r_tag : member_tag option; r_prior : View.Id.t option }

let sort_subviews svs =
  List.sort (fun a b -> Subview_id.compare a.sv_id b.sv_id) svs

let sort_svsets sss =
  List.sort (fun a b -> Svset_id.compare a.ss_id b.ss_id) sss

let initial p =
  {
    view = View.singleton p;
    structure =
      {
        subviews = [ { sv_id = Subview_id.Fresh p; sv_members = [ p ] } ];
        svsets =
          [ { ss_id = Svset_id.Fresh p; ss_subviews = [ Subview_id.Fresh p ] } ];
      };
    eseq = 0;
  }

let rebuild view reports =
  (* Each member's effective report: fresh joiners get singleton identities,
     and their "prior view" defaults to their own initial view so that
     grouping keys are always defined. *)
  let report_of p =
    match List.assoc_opt p reports with
    | Some { r_tag = Some tag; r_prior } ->
        (tag, Option.value r_prior ~default:(View.Id.initial p))
    | Some { r_tag = None; r_prior } ->
        ( { m_sv = Subview_id.Fresh p; m_ss = Svset_id.Fresh p },
          Option.value r_prior ~default:(View.Id.initial p) )
    | None ->
        ( { m_sv = Subview_id.Fresh p; m_ss = Svset_id.Fresh p },
          View.Id.initial p )
  in
  let tagged = List.map (fun p -> (p, report_of p)) view.View.members in
  (* Members sharing a reported subview id from the same prior view shared
     that subview; equal ids arriving from different prior views are
     fragments of a subview split by a partition and must remain distinct
     (subviews grow only under application control), so each fragment's id
     is qualified with the view it came through. *)
  let by_sv =
    Listx.group_by
      ~key:(fun (_, (tag, _)) -> tag.m_sv)
      ~cmp_key:Subview_id.compare tagged
  in
  let subviews =
    List.concat_map
      (fun (sv_id, group) ->
        let fragments =
          Listx.group_by
            ~key:(fun (_, (_, prior)) -> prior)
            ~cmp_key:View.Id.compare group
        in
        match fragments with
        | [ (_, only) ] ->
            [ (sv_id, { sv_id; sv_members = Proc_id.sort (List.map fst only) }) ]
        | _ ->
            List.map
              (fun (prior, frag) ->
                let qualified = Subview_id.Split { base = sv_id; view = prior } in
                ( qualified,
                  { sv_id = qualified; sv_members = Proc_id.sort (List.map fst frag) }
                ))
              fragments)
      by_sv
  in
  let subviews = List.map snd subviews in
  (* A subview's sv-set identity comes from its members' (identical by
     construction) reports, qualified the same way when fragments of one
     sv-set meet from different prior views. *)
  let svset_report_of_subview sv =
    match sv.sv_members with
    | p :: _ ->
        let tag, prior = report_of p in
        (tag.m_ss, prior)
    | [] -> assert false
  in
  let by_ss =
    Listx.group_by
      ~key:(fun sv -> fst (svset_report_of_subview sv))
      ~cmp_key:Svset_id.compare subviews
  in
  let svsets =
    List.concat_map
      (fun (ss_id, group) ->
        let fragments =
          Listx.group_by
            ~key:(fun sv -> snd (svset_report_of_subview sv))
            ~cmp_key:View.Id.compare group
        in
        match fragments with
        | [ (_, only) ] ->
            [
              {
                ss_id;
                ss_subviews =
                  List.sort Subview_id.compare
                    (List.map (fun sv -> sv.sv_id) only);
              };
            ]
        | _ ->
            List.map
              (fun (prior, frag) ->
                {
                  ss_id = Svset_id.Split { base = ss_id; view = prior };
                  ss_subviews =
                    List.sort Subview_id.compare
                      (List.map (fun sv -> sv.sv_id) frag);
                })
              fragments)
      by_ss
  in
  {
    view;
    structure = { subviews = sort_subviews subviews; svsets = sort_svsets svsets };
    eseq = 0;
  }

type snapshot_report = { sr_snapshot : t option; sr_prior : View.Id.t option }

let members t = t.view.View.members

let svset_ids t = List.map (fun ss -> ss.ss_id) t.structure.svsets

let subview_ids t = List.map (fun sv -> sv.sv_id) t.structure.subviews

let find_subview sv_id t =
  List.find_opt (fun sv -> Subview_id.equal sv.sv_id sv_id) t.structure.subviews

let subview_of p t =
  List.find_opt
    (fun sv -> List.exists (Proc_id.equal p) sv.sv_members)
    t.structure.subviews

let svset_of_subview sv_id t =
  List.find_opt
    (fun ss -> List.exists (Subview_id.equal sv_id) ss.ss_subviews)
    t.structure.svsets

let svset_members ss t =
  List.concat_map
    (fun sv_id ->
      match find_subview sv_id t with
      | Some sv -> sv.sv_members
      | None -> [])
    ss.ss_subviews
  |> Proc_id.sort

let is_degenerate t =
  match (t.structure.subviews, t.structure.svsets) with
  | [ sv ], [ _ ] ->
      Listx.equal_set ~cmp:Proc_id.compare sv.sv_members t.view.View.members
  | _ -> false

let apply_svset_merge t ids =
  let ids = Listx.sorted_set ~cmp:Svset_id.compare ids in
  let existing, rest =
    List.partition
      (fun ss -> List.exists (Svset_id.equal ss.ss_id) ids)
      t.structure.svsets
  in
  if List.length existing < 2 then Error `No_effect
  else begin
    let eseq = t.eseq + 1 in
    let new_id = Svset_id.Merged { view = t.view.View.id; seq = eseq } in
    let merged =
      {
        ss_id = new_id;
        ss_subviews =
          List.concat_map (fun ss -> ss.ss_subviews) existing
          |> Listx.sorted_set ~cmp:Subview_id.compare;
      }
    in
    let structure =
      { t.structure with svsets = sort_svsets (merged :: rest) }
    in
    Ok ({ t with structure; eseq }, new_id)
  end

let apply_subview_merge t ids =
  let ids = Listx.sorted_set ~cmp:Subview_id.compare ids in
  let existing, rest =
    List.partition
      (fun sv -> List.exists (Subview_id.equal sv.sv_id) ids)
      t.structure.subviews
  in
  if List.length existing < 2 then Error `No_effect
  else begin
    (* All existing subviews must live in the same sv-set (Section 6.1:
       otherwise the call has no effect). *)
    let homes =
      List.filter_map (fun sv -> svset_of_subview sv.sv_id t) existing
      |> List.map (fun ss -> ss.ss_id)
      |> Listx.sorted_set ~cmp:Svset_id.compare
    in
    match homes with
    | [ home_id ] ->
        let eseq = t.eseq + 1 in
        let new_id = Subview_id.Merged { view = t.view.View.id; seq = eseq } in
        let merged =
          {
            sv_id = new_id;
            sv_members =
              List.concat_map (fun sv -> sv.sv_members) existing
              |> Proc_id.sort;
          }
        in
        let merged_ids = List.map (fun sv -> sv.sv_id) existing in
        let fix_svset ss =
          if Svset_id.equal ss.ss_id home_id then
            {
              ss with
              ss_subviews =
                new_id
                :: List.filter
                     (fun id ->
                       not (List.exists (Subview_id.equal id) merged_ids))
                     ss.ss_subviews
                |> Listx.sorted_set ~cmp:Subview_id.compare;
            }
          else ss
        in
        let structure =
          {
            subviews = sort_subviews (merged :: rest);
            svsets = sort_svsets (List.map fix_svset t.structure.svsets);
          }
        in
        Ok ({ t with structure; eseq }, new_id)
    | _ -> Error `No_effect
  end

let validate t =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let all_sv_members =
    List.concat_map (fun sv -> sv.sv_members) t.structure.subviews
  in
  let* () =
    if
      Listx.equal_set ~cmp:Proc_id.compare
        (Proc_id.sort all_sv_members)
        t.view.View.members
      && List.length all_sv_members = List.length t.view.View.members
    then Ok ()
    else err "subviews do not partition the membership"
  in
  let* () =
    if List.for_all (fun sv -> sv.sv_members <> []) t.structure.subviews then
      Ok ()
    else err "empty subview"
  in
  let all_ss_subviews =
    List.concat_map (fun ss -> ss.ss_subviews) t.structure.svsets
  in
  let sv_ids = subview_ids t in
  let* () =
    if
      Listx.equal_set ~cmp:Subview_id.compare
        (Listx.sorted_set ~cmp:Subview_id.compare all_ss_subviews)
        (Listx.sorted_set ~cmp:Subview_id.compare sv_ids)
      && List.length all_ss_subviews = List.length sv_ids
    then Ok ()
    else err "sv-sets do not partition the subviews"
  in
  if List.for_all (fun ss -> ss.ss_subviews <> []) t.structure.svsets then
    Ok ()
  else err "empty sv-set"

let to_string t =
  let subview_str sv_id =
    match find_subview sv_id t with
    | Some sv ->
        Printf.sprintf "[%s]"
          (String.concat "," (List.map Proc_id.to_string sv.sv_members))
    | None -> "[?]"
  in
  let svset_str ss =
    Printf.sprintf "{%s}" (String.concat "" (List.map subview_str ss.ss_subviews))
  in
  Printf.sprintf "%s:%d %s"
    (View.Id.to_string t.view.View.id)
    t.eseq
    (String.concat "" (List.map svset_str t.structure.svsets))

(* Per prior-view group, the freshest snapshot (highest eseq; ties are
   equal by total order) assigns every member its identities; members
   absent from it — impossible for a correct reporter, handled defensively —
   get fresh singletons. *)
let rebuild_from_snapshots view raw =
  let prior_of p =
    match List.assoc_opt p raw with
    | Some { sr_prior = Some vid; _ } -> vid
    | Some { sr_prior = None; _ } | None -> View.Id.initial p
  in
  let groups =
    Listx.group_by ~key:prior_of ~cmp_key:View.Id.compare view.View.members
  in
  let reports =
    List.concat_map
      (fun (prior, group_members) ->
        let best =
          List.fold_left
            (fun best p ->
              match List.assoc_opt p raw with
              | Some { sr_snapshot = Some snap; _ }
                when View.Id.equal snap.view.View.id prior -> (
                  match best with
                  | Some b when b.eseq >= snap.eseq -> best
                  | Some _ | None -> Some snap)
              | Some _ | None -> best)
            None group_members
        in
        List.map
          (fun p ->
            let tag =
              match best with
              | Some snap -> (
                  match subview_of p snap with
                  | Some sv -> (
                      match svset_of_subview sv.sv_id snap with
                      | Some ss -> Some { m_sv = sv.sv_id; m_ss = ss.ss_id }
                      | None -> None)
                  | None -> None)
              | None -> None
            in
            (p, { r_tag = tag; r_prior = Some prior }))
          group_members)
      groups
  in
  rebuild view reports
