module Faults = Vs_harness.Faults
module Driver = Vs_harness.Driver
module Net = Vs_net.Net

(* ---------- minimal s-expressions (no parser dependency available) ---------- *)

type sexp = Atom of string | List of sexp list

let rec print_sexp buf = function
  | Atom a -> Buffer.add_string buf a
  | List items ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ' ';
          print_sexp buf item)
        items;
      Buffer.add_char buf ')'

let sexp_to_string s =
  let buf = Buffer.create 256 in
  print_sexp buf s;
  Buffer.contents buf

exception Parse_error of string

let parse_sexp text =
  let n = String.length text in
  let pos = ref 0 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some ';' ->
        (* comment to end of line *)
        while !pos < n && text.[!pos] <> '\n' do
          advance ()
        done;
        skip_ws ()
    | _ -> ()
  in
  let atom_char c =
    match c with ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> false | _ -> true
  in
  let rec parse () =
    skip_ws ();
    match peek () with
    | None -> raise (Parse_error "unexpected end of input")
    | Some '(' ->
        advance ();
        let items = ref [] in
        let rec loop () =
          skip_ws ();
          match peek () with
          | None -> raise (Parse_error "unclosed '('")
          | Some ')' -> advance ()
          | Some _ ->
              items := parse () :: !items;
              loop ()
        in
        loop ();
        List (List.rev !items)
    | Some ')' -> raise (Parse_error "unexpected ')'")
    | Some _ ->
        let start = !pos in
        while (match peek () with Some c -> atom_char c | None -> false) do
          advance ()
        done;
        Atom (String.sub text start (!pos - start))
  in
  let s = parse () in
  skip_ws ();
  if !pos <> n then raise (Parse_error "trailing garbage after s-expression");
  s

(* ---------- conversions ---------- *)

(* Round-trip float formatting: the shortest of %.15g/%.16g/%.17g that
   parses back to the same double. *)
let float_atom f =
  let try_prec p =
    let s = Printf.sprintf "%.*g" p f in
    if float_of_string s = f then Some s else None
  in
  match (try_prec 15, try_prec 16) with
  | Some s, _ -> s
  | None, Some s -> s
  | None, None -> Printf.sprintf "%.17g" f

let field name value = List [ Atom name; value ]

let corruption_to_sexp = function
  | Faults.Seq_skew k -> [ Atom "seq-skew"; Atom (string_of_int k) ]
  | Faults.Stability_smear (node, amount) ->
      [ Atom "stability-smear"; Atom (string_of_int node);
        Atom (string_of_int amount) ]
  | Faults.View_skew k -> [ Atom "view-skew"; Atom (string_of_int k) ]
  | Faults.Deps_truncate (node, k) ->
      [ Atom "deps-truncate"; Atom (string_of_int node);
        Atom (string_of_int k) ]

let action_to_sexp = function
  | Faults.Heal -> List [ Atom "heal" ]
  | Faults.Crash node -> List [ Atom "crash"; Atom (string_of_int node) ]
  | Faults.Recover node -> List [ Atom "recover"; Atom (string_of_int node) ]
  | Faults.Partition comps ->
      List
        (Atom "partition"
        :: List.map
             (fun comp -> List (List.map (fun x -> Atom (string_of_int x)) comp))
             comps)
  | Faults.Corrupt (node, c) ->
      List (Atom "corrupt" :: Atom (string_of_int node) :: corruption_to_sexp c)

let spec_to_sexp (spec : Campaign.spec) =
  List
    ([
      field "seed" (Atom (Int64.to_string spec.Campaign.seed));
      field "protocol" (Atom (Driver.protocol_to_string spec.Campaign.protocol));
      field "nodes" (Atom (string_of_int spec.Campaign.nodes));
      field "loss" (Atom (float_atom spec.Campaign.net.Net.drop_prob));
      field "dup" (Atom (float_atom spec.Campaign.net.Net.dup_prob));
      field "delay-min" (Atom (float_atom spec.Campaign.net.Net.delay_min));
      field "delay-max" (Atom (float_atom spec.Campaign.net.Net.delay_max));
      field "traffic-gap" (Atom (float_atom spec.Campaign.traffic_gap));
      field "traffic-until" (Atom (float_atom spec.Campaign.traffic_until));
      field "horizon" (Atom (float_atom spec.Campaign.horizon));
    ]
    (* Only transient specs carry the flag, so artifacts saved by the
       pre-transient grammar stay byte-identical on a save/load round
       trip. *)
    @ (if spec.Campaign.transient then [ field "transient" (Atom "true") ]
       else [])
    @ [
      field "script"
        (List
           (List.map
              (fun (time, action) ->
                List [ Atom (float_atom time); action_to_sexp action ])
              spec.Campaign.script));
    ])

let to_string spec =
  (* One field per line keeps the artifacts diffable. *)
  match spec_to_sexp spec with
  | List fields ->
      "(" ^ String.concat "\n " (List.map sexp_to_string fields) ^ ")\n"
  | Atom _ -> assert false

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let as_int = function
  | Atom a -> (
      match int_of_string_opt a with
      | Some v -> v
      | None -> fail "expected an integer, got %S" a)
  | List _ -> fail "expected an integer atom"

(* Non-finite values cannot replay: a nan horizon is never reached, and a
   nan spec is not even equal to itself. *)
let as_float = function
  | Atom a -> (
      match float_of_string_opt a with
      | Some v when Float.is_finite v -> v
      | Some _ | None -> fail "expected a finite float, got %S" a)
  | List _ -> fail "expected a float atom"

let action_of_sexp = function
  | List [ Atom "heal" ] -> Faults.Heal
  | List [ Atom "crash"; node ] -> Faults.Crash (as_int node)
  | List [ Atom "recover"; node ] -> Faults.Recover (as_int node)
  | List (Atom "partition" :: comps) ->
      Faults.Partition
        (List.map
           (function
             | List nodes -> List.map as_int nodes
             | Atom _ -> fail "partition component must be a list")
           comps)
  | List (Atom "corrupt" :: node :: kind) ->
      let c =
        match kind with
        | [ Atom "seq-skew"; k ] -> Faults.Seq_skew (as_int k)
        | [ Atom "stability-smear"; m; amount ] ->
            Faults.Stability_smear (as_int m, as_int amount)
        | [ Atom "view-skew"; k ] -> Faults.View_skew (as_int k)
        | [ Atom "deps-truncate"; m; k ] ->
            Faults.Deps_truncate (as_int m, as_int k)
        | _ -> fail "unknown corruption kind"
      in
      Faults.Corrupt (as_int node, c)
  | s -> fail "unknown action %S" (sexp_to_string s)

let spec_of_sexp sexp =
  let fields =
    match sexp with
    | List items ->
        List.map
          (function
            | List [ Atom name; value ] -> (name, value)
            | s -> fail "expected a (name value) field, got %S" (sexp_to_string s))
          items
    | Atom _ -> fail "expected a field list"
  in
  let get name =
    match List.assoc_opt name fields with
    | Some v -> v
    | None -> fail "missing field %S" name
  in
  let seed =
    match get "seed" with
    | Atom a -> (
        match Int64.of_string_opt a with
        | Some v -> v
        | None -> fail "bad seed %S" a)
    | List _ -> fail "bad seed"
  in
  let protocol =
    match get "protocol" with
    | Atom "vsync" -> Driver.Vsync
    | Atom "evs" -> Driver.Evs
    | s -> fail "unknown protocol %S" (sexp_to_string s)
  in
  let script =
    match get "script" with
    | List entries ->
        List.map
          (function
            | List [ time; action ] ->
                let at = as_float time in
                if at < 0. then fail "script time %s is negative" (float_atom at);
                (at, action_of_sexp action)
            | s -> fail "bad script entry %S" (sexp_to_string s))
          entries
    | Atom _ -> fail "script must be a list"
  in
  let net =
    {
      Net.default_config with
      Net.drop_prob = as_float (get "loss");
      dup_prob = as_float (get "dup");
      delay_min = as_float (get "delay-min");
      delay_max = as_float (get "delay-max");
    }
  in
  Result.iter_error (fail "%s") (Net.check_config net);
  {
    Campaign.seed;
    protocol;
    nodes = as_int (get "nodes");
    net;
    script;
    traffic_gap = as_float (get "traffic-gap");
    traffic_until = as_float (get "traffic-until");
    horizon = as_float (get "horizon");
    (* Optional so artifacts written by the pre-transient grammar parse
       unchanged. *)
    transient =
      (match List.assoc_opt "transient" fields with
      | Some (Atom "true") -> true
      | Some _ | None -> false);
  }

let of_string text =
  match spec_of_sexp (parse_sexp text) with
  | spec -> Ok spec
  | exception Parse_error msg -> Error msg

(* ---------- file IO ---------- *)

let filename (spec : Campaign.spec) =
  Printf.sprintf "%s-seed%Ld-n%d.sexp"
    (Driver.protocol_to_string spec.Campaign.protocol)
    spec.Campaign.seed spec.Campaign.nodes

let save ~dir spec =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (filename spec) in
  let oc = open_out path in
  output_string oc (to_string spec);
  close_out oc;
  path

let load path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      of_string text

let load_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sexp")
    |> List.sort String.compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           (path, load path))
