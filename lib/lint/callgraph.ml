(* Pass 1 of the whole-program analyzer: a module-qualified call graph over
   the untyped ASTs of every file handed to [build].

   Each toplevel (or nested-module) [let] becomes a {!def} carrying the
   out-edges found in its body: every identifier reference, with its module
   qualifiers expanded through the file's toplevel [module M = ...] aliases,
   plus the intrinsic facts the later passes seed from (allocating
   constructs, mutation).  Resolution is name-based and deliberately
   conservative: a qualified reference [M.f] links to every def whose
   module chain is suffix-compatible with [M], so ambiguity over-links
   (sound for effect propagation) rather than dropping edges.  First-class
   functions are covered to the extent they are statically named — a bare
   reference [g] passed to [List.iter] still creates the edge to [g];
   functions reached only through record fields or functor arguments are
   not resolved, which the A1 rule compensates for by flagging only what it
   can prove about resolved calls. *)

type call = {
  c_quals : string list;  (* alias-expanded module qualifiers, Stdlib-stripped *)
  c_name : string;
  c_path : string;  (* full dotted path as expanded, for the effect tables *)
  c_args : int;  (* applied argument count; 0 for a bare reference *)
  c_line : int;
  c_col : int;
}

type alloc = {
  a_what : string;  (* human description: "closure", "tuple construction", ... *)
  a_line : int;
  a_col : int;
}

type def = {
  d_file : string;
  d_chain : string list;  (* module path inside the file, e.g. ["Batch"] *)
  d_name : string;
  d_line : int;
  d_col : int;
  d_arity : int;  (* leading fun-parameters, for partial-application checks *)
  d_opens : string list list;  (* the file's toplevel opens, for resolution *)
  d_calls : call list;
  d_allocs : alloc list;
  d_mutates : bool;
}

type t = {
  defs : def list;  (* sorted by (file, line, col): all iteration is stable *)
  by_name : (string, def list) Hashtbl.t;
}

let def_id d =
  Printf.sprintf "%s:%s" d.d_file
    (String.concat "." (d.d_chain @ [ d.d_name ]))

(* "lib/vsync/endpoint.ml" -> "Endpoint" *)
let file_module path =
  let base = Filename.remove_extension (Filename.basename path) in
  String.capitalize_ascii base

(* ---------- per-file collection ---------- *)

let loc_pos (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol)

(* Allocating stdlib entry points the A1 rule refuses under an annotation.
   Keyed by the alias-expanded dotted path. *)
let allocating_externals =
  [
    ("^", "string concatenation (^)");
    ("@", "list append (@)");
    ("ref", "ref cell");
    ("String.concat", "String.concat");
    ("String.make", "String.make");
    ("String.sub", "String.sub");
    ("String.init", "String.init");
    ("Bytes.create", "Bytes.create");
    ("Bytes.make", "Bytes.make");
    ("Printf.sprintf", "Printf.sprintf");
    ("Printf.printf", "Printf.printf");
    ("Format.asprintf", "Format.asprintf");
    ("Format.sprintf", "Format.sprintf");
    ("List.map", "List.map");
    ("List.mapi", "List.mapi");
    ("List.init", "List.init");
    ("List.append", "List.append");
    ("List.concat", "List.concat");
    ("List.concat_map", "List.concat_map");
    ("List.filter", "List.filter");
    ("List.filter_map", "List.filter_map");
    ("List.rev", "List.rev");
    ("List.sort", "List.sort");
    ("List.of_seq", "List.of_seq");
    ("Array.make", "Array.make");
    ("Array.init", "Array.init");
    ("Array.append", "Array.append");
    ("Array.of_list", "Array.of_list");
    ("Array.to_list", "Array.to_list");
    ("Array.copy", "Array.copy");
    ("Array.map", "Array.map");
  ]

let float_ops = [ "+."; "-."; "*."; "/."; "**" ]

(* The body of [let f x y = e] parses as nested [Pexp_fun]; peel that
   parameter chain (it is the function itself, not a closure allocation)
   and return the arity together with the real body expressions.  A
   top-level [function] match contributes one parameter and its case
   bodies. *)
let rec peel_params arity (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Pexp_fun (_, default, _, body) ->
      let defaults = match default with Some d -> [ d ] | None -> [] in
      let arity, bodies = peel_params (arity + 1) body in
      (arity, defaults @ bodies)
  | Pexp_function cases ->
      ( arity + 1,
        List.concat_map
          (fun (c : Parsetree.case) ->
            (match c.pc_guard with Some g -> [ g ] | None -> [])
            @ [ c.pc_rhs ])
          cases )
  | Pexp_newtype (_, body) -> peel_params arity body
  | _ -> (arity, [ e ])

(* Walk one definition body, collecting calls, allocating constructs, and
   mutation.  [aliases] maps a file-toplevel module alias to its expanded
   path. *)
let collect_body ~aliases bodies =
  let calls = ref [] and allocs = ref [] and mutates = ref false in
  let add_alloc what loc =
    let line, col = loc_pos loc in
    allocs := { a_what = what; a_line = line; a_col = col } :: !allocs
  in
  let expand parts =
    match parts with
    | head :: rest -> (
        match List.assoc_opt head aliases with
        | Some target -> target @ rest
        | None -> parts)
    | [] -> parts
  in
  (* An identifier's dotted path, alias-expanded and Stdlib-stripped. *)
  let resolve lid =
    Lint.strip_stdlib (expand (Lint.strip_stdlib (Lint.path_of_lident lid)))
  in
  let add_ref ~args lid loc =
    match resolve lid with
    | [] -> ()
    | parts ->
        let rec split acc = function
          | [ name ] -> (List.rev acc, name)
          | q :: rest -> split (q :: acc) rest
          | [] -> assert false
        in
        let quals, name = split [] parts in
        let line, col = loc_pos loc in
        calls :=
          {
            c_quals = quals;
            c_name = name;
            c_path = String.concat "." parts;
            c_args = args;
            c_line = line;
            c_col = col;
          }
          :: !calls
  in
  let open Ast_iterator in
  let rec expr self (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) ->
        (* One call record per application; recurse into the arguments only
           so the applied ident is not re-recorded as a bare reference. *)
        add_ref ~args:(List.length args) txt loc;
        let path = String.concat "." (resolve txt) in
        if path = ":=" then mutates := true;
        (if List.mem path float_ops then
           add_alloc (Printf.sprintf "float arithmetic (%s, boxes)" path) loc
         else
           match List.assoc_opt path allocating_externals with
           | Some what -> add_alloc what loc
           | None -> ());
        List.iter (fun (_, a) -> expr self a) args
    | _ ->
        (match e.Parsetree.pexp_desc with
        | Pexp_ident { txt; loc } -> add_ref ~args:0 txt loc
        | Pexp_fun _ | Pexp_function _ -> add_alloc "closure" e.pexp_loc
        | Pexp_tuple _ -> add_alloc "tuple construction" e.pexp_loc
        | Pexp_record _ -> add_alloc "record construction" e.pexp_loc
        | Pexp_construct (lid, Some _) ->
            add_alloc
              (Printf.sprintf "variant construction (%s)"
                 (String.concat "." (Lint.path_of_lident lid.Location.txt)))
              e.pexp_loc
        | Pexp_variant (_, Some _) ->
            add_alloc "polymorphic-variant construction" e.pexp_loc
        | Pexp_array _ -> add_alloc "array literal" e.pexp_loc
        | Pexp_lazy _ -> add_alloc "lazy block" e.pexp_loc
        | Pexp_constant (Pconst_float _) ->
            add_alloc "float constant (boxes)" e.pexp_loc
        | Pexp_setfield _ | Pexp_setinstvar _ -> mutates := true
        | _ -> ());
        default_iterator.expr self e
  in
  let it = { default_iterator with expr } in
  List.iter (fun body -> it.expr it body) bodies;
  (List.rev !calls, List.rev !allocs, !mutates)

(* Collect the defs of one parsed file: walk the structure, descending into
   [module X = struct ... end] (and functor bodies) with the chain
   extended, recording toplevel aliases and opens for resolution. *)
let defs_of_file path (ast : Parsetree.structure) =
  let aliases = ref [] and opens = ref [] and out = ref [] in
  let rec module_structure (me : Parsetree.module_expr) =
    match me.Parsetree.pmod_desc with
    | Pmod_structure items -> Some items
    | Pmod_functor (_, body) -> module_structure body
    | Pmod_constraint (body, _) -> module_structure body
    | _ -> None
  in
  let rec walk chain items =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.Parsetree.pstr_desc with
        | Pstr_value (_, bindings) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                match vb.pvb_pat.Parsetree.ppat_desc with
                | Ppat_var { txt = name; loc } ->
                    let line, col = loc_pos loc in
                    let arity, bodies = peel_params 0 vb.pvb_expr in
                    let calls, allocs, mutates =
                      collect_body ~aliases:!aliases bodies
                    in
                    out :=
                      {
                        d_file = path;
                        d_chain = List.rev chain;
                        d_name = name;
                        d_line = line;
                        d_col = col;
                        d_arity = arity;
                        d_opens = [];  (* filled in below, once *)
                        d_calls = calls;
                        d_allocs = allocs;
                        d_mutates = mutates;
                      }
                      :: !out
                | _ -> ())
              bindings
        | Pstr_module mb -> (
            let name =
              match mb.Parsetree.pmb_name.Location.txt with
              | Some n -> n
              | None -> "_"
            in
            match mb.Parsetree.pmb_expr.Parsetree.pmod_desc with
            | Pmod_ident { txt; _ } when chain = [] ->
                aliases := (name, Lint.path_of_lident txt) :: !aliases
            | _ -> (
                match module_structure mb.Parsetree.pmb_expr with
                | Some items -> walk (name :: chain) items
                | None -> ()))
        | Pstr_open od -> (
            match od.Parsetree.popen_expr.Parsetree.pmod_desc with
            | Pmod_ident { txt; _ } when chain = [] ->
                opens := Lint.path_of_lident txt :: !opens
            | _ -> ())
        | _ -> ())
      items
  in
  walk [] ast;
  let opens = List.rev !opens in
  List.rev_map (fun d -> { d with d_opens = opens }) !out

(* ---------- the graph ---------- *)

let compare_def a b =
  match String.compare a.d_file b.d_file with
  | 0 -> (
      match Int.compare a.d_line b.d_line with
      | 0 -> Int.compare a.d_col b.d_col
      | c -> c)
  | c -> c

let build files =
  let defs =
    List.concat_map (fun (path, ast) -> defs_of_file path ast) files
    |> List.sort compare_def
  in
  let by_name = Hashtbl.create 256 in
  List.iter
    (fun d ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_name d.d_name) in
      Hashtbl.replace by_name d.d_name (prev @ [ d ]))
    defs;
  { defs; by_name }

let is_suffix suffix l =
  let ls = List.length suffix and ll = List.length l in
  ls > 0 && ls <= ll
  && (let rec drop n = function
        | l when n = 0 -> l
        | _ :: tl -> drop (n - 1) tl
        | [] -> []
      in
      drop (ll - ls) l = suffix)

(* Resolve a reference made from [from].  Unqualified names see the same
   file (defs whose chain is a prefix of the referrer's lexical chain) and
   anything reachable through the file's toplevel opens; qualified names
   match every def whose [FileModule :: chain] is suffix-compatible with
   the written qualifiers. *)
let resolve t ~(from : def) (c : call) =
  let candidates =
    Option.value ~default:[] (Hashtbl.find_opt t.by_name c.c_name)
  in
  let qualified quals =
    List.filter
      (fun d ->
        let dchain = file_module d.d_file :: d.d_chain in
        is_suffix quals dchain || is_suffix dchain quals)
      candidates
  in
  match c.c_quals with
  | [] ->
      let same_file =
        List.filter
          (fun d ->
            String.equal d.d_file from.d_file
            &&
            let rec prefix a b =
              match (a, b) with
              | [], _ -> true
              | x :: a', y :: b' -> String.equal x y && prefix a' b'
              | _ :: _, [] -> false
            in
            prefix d.d_chain from.d_chain)
          candidates
      in
      let via_opens =
        List.concat_map (fun o -> qualified (Lint.strip_stdlib o)) from.d_opens
      in
      same_file @ via_opens
  | quals -> qualified quals
