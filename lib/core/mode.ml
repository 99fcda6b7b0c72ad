type t = Normal | Reduced | Settling [@@deriving eq, ord, show]

(* No [@@deriving] here: the generated code opens Ppx_deriving_runtime,
   whose re-exported Stdlib [Failure] exception would capture the
   constructor patterns. *)
type transition = Failure | Repair | Reconfigure | Reconcile

let transition_index = function
  | Failure -> 0
  | Repair -> 1
  | Reconfigure -> 2
  | Reconcile -> 3

let equal_transition a b = transition_index a = transition_index b

let compare_transition a b =
  Int.compare (transition_index a) (transition_index b)

let to_string = function
  | Normal -> "N"
  | Reduced -> "R"
  | Settling -> "S"

let transition_to_string = function
  | Failure -> "Failure"
  | Repair -> "Repair"
  | Reconfigure -> "Reconfigure"
  | Reconcile -> "Reconcile"

let edge ~from ~into =
  match (from, into) with
  | Normal, Reduced -> Some Failure
  | Normal, Settling -> Some Reconfigure
  | Reduced, Settling -> Some Repair
  | Settling, Reduced -> Some Failure
  | Settling, Settling -> Some Reconfigure
  | Settling, Normal -> Some Reconcile
  | Normal, Normal | Reduced, Reduced -> None
  | Reduced, Normal -> None

let is_legal ~from ~into =
  equal from into || Option.is_some (edge ~from ~into)

type target = Serve_all | Serve_reduced [@@deriving eq, show]

type reconfigure_policy = On_any_change | On_expansion | Never

module Machine = struct
  type mode = t

  type step = { from_mode : mode; into_mode : mode; cause : transition option }

  type nonrec t = { mutable current : mode; mutable rev_history : step list }

  let create ?(initial = Settling) () = { current = initial; rev_history = [] }

  let mode m = m.current

  let take m into =
    let from = m.current in
    (* [edge] yields the Figure-1 cause; staying in Normal or Reduced is a
       causeless no-op, while Settling -> Settling is a genuine Reconfigure
       edge. *)
    let cause = edge ~from ~into in
    if cause = None && not (equal from into) then
      invalid_arg
        (Printf.sprintf "Mode.Machine: illegal transition %s -> %s"
           (to_string from) (to_string into));
    let step = { from_mode = from; into_mode = into; cause } in
    m.current <- into;
    m.rev_history <- step :: m.rev_history;
    step

  (* The derivation rule: a view change first fixes the service target; a
     target of Serve_reduced forces Reduced immediately (Failure), while a
     target of Serve_all can be served only after passing through Settling —
     either because we come from Reduced (Repair) or because the change
     itself requires state reconstruction (Reconfigure). *)
  let on_view_change m ~target ~expanded ~policy =
    match (target, m.current) with
    | Serve_reduced, _ -> take m Reduced
    | Serve_all, Reduced -> take m Settling
    | Serve_all, Settling -> take m Settling
    | Serve_all, Normal ->
        let needs_settling =
          match policy with
          | On_any_change -> true
          | On_expansion -> expanded
          | Never -> false
        in
        if needs_settling then take m Settling else take m Normal

  let reconcile m =
    match m.current with
    | Settling -> Ok (take m Normal)
    | Normal | Reduced -> Error `Not_settling

  let history m = List.rev m.rev_history

  let transition_counts m =
    let bump acc tr =
      let n = try List.assoc tr acc with Not_found -> 0 in
      (tr, n + 1) :: List.remove_assoc tr acc
    in
    List.fold_left
      (fun acc step ->
        match step.cause with Some tr -> bump acc tr | None -> acc)
      [] (history m)
    |> List.sort (fun (a, _) (b, _) -> compare_transition a b)
end
