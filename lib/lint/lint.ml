(* The vslint engine: parses each .ml with the compiler's own parser
   (compiler-libs.common, no external dependency), walks the untyped AST
   with {!Ast_iterator}, and reports rule findings with file:line:col
   spans.

   Suppressions.  A finding is silenced by a single-line comment on the
   same line or the line directly above:

     [(* vslint: allow <RULE> — commutative fold *)]

   The justification after the rule id is mandatory: a bare allow
   suppresses nothing and is itself reported (rule S1).  Suppressions are
   matched textually, so they also work above multi-line expressions as
   long as the comment sits next to the flagged identifier. *)

type finding = {
  rule : Rules.t;
  file : string;
  line : int;
  col : int;
  message : string;
}

type report = {
  findings : finding list;  (* unsuppressed: these fail the build *)
  suppressed : finding list;  (* silenced by a justified allow *)
}

(* The marker is assembled from pieces so the scanner never mistakes this
   file's own sources for suppression sites. *)
let marker = "vs" ^ "lint:"

(* ---------- suppression comments ---------- *)

type suppression = {
  s_line : int;
  s_col : int;
  s_rule : string;
  s_just : string option;  (* None: malformed — missing justification *)
}

let find_sub haystack needle from =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub haystack i nn = needle then Some i
    else go (i + 1)
  in
  go from

let is_space c = c = ' ' || c = '\t'

let skip_spaces s i =
  let n = String.length s in
  let rec go i = if i < n && is_space s.[i] then go (i + 1) else i in
  go i

(* Strip separator punctuation (em/en dashes, hyphens, colons) and spaces
   from the head of the justification, and a trailing "*)" plus spaces from
   its tail. *)
let extract_justification rest =
  let rest =
    match find_sub rest "*)" 0 with
    | Some i -> String.sub rest 0 i
    | None -> rest
  in
  let n = String.length rest in
  let rec head i =
    if i >= n then i
    else if is_space rest.[i] || rest.[i] = '-' || rest.[i] = ':' then head (i + 1)
    else if
      (* UTF-8 em dash e2 80 94 / en dash e2 80 93 *)
      i + 2 < n
      && rest.[i] = '\xe2'
      && rest.[i + 1] = '\x80'
      && (rest.[i + 2] = '\x93' || rest.[i + 2] = '\x94')
    then head (i + 3)
    else i
  in
  let start = head 0 in
  let just = String.trim (String.sub rest start (n - start)) in
  if just = "" then None else Some just

let scan_line ~lineno line =
  let rec go from acc =
    match find_sub line marker from with
    | None -> acc
    | Some at -> (
        let i = skip_spaces line (at + String.length marker) in
        let allow = "allow" in
        let n = String.length line in
        if i + String.length allow > n || String.sub line i (String.length allow) <> allow
        then go (at + 1) acc
        else
          let i = skip_spaces line (i + String.length allow) in
          let j =
            let rec scan j =
              if
                j < n
                && ((line.[j] >= 'A' && line.[j] <= 'Z')
                   || (line.[j] >= '0' && line.[j] <= '9'))
              then scan (j + 1)
              else j
            in
            scan i
          in
          if j = i then go (at + 1) acc
          else
            let rule = String.sub line i (j - i) in
            let just = extract_justification (String.sub line j (n - j)) in
            go (at + 1) ({ s_line = lineno; s_col = at; s_rule = rule; s_just = just } :: acc))
  in
  go 0 []

let scan_suppressions source =
  let lines = String.split_on_char '\n' source in
  List.concat (List.mapi (fun i line -> scan_line ~lineno:(i + 1) line) lines)

(* ---------- alloc-free annotations ---------- *)

(* An annotation comment — the marker followed by the word below — on the
   line above (or the line of) a definition puts that function under rule
   A1: its body must contain no allocating construct.  Scanned textually
   like suppressions. *)
let alloc_free = "alloc-" ^ "free"

let scan_annotations source =
  let lines = String.split_on_char '\n' source in
  List.concat
    (List.mapi
       (fun i line ->
         match find_sub line marker 0 with
         | None -> []
         | Some at ->
             let j = skip_spaces line (at + String.length marker) in
             if
               j + String.length alloc_free <= String.length line
               && String.sub line j (String.length alloc_free) = alloc_free
             then [ i + 1 ]
             else [])
       lines)

(* ---------- the AST pass ---------- *)

(* [path_has path sub]: [sub] occurs in [path], read with '/' separators. *)
let path_has path sub =
  find_sub (String.map (fun c -> if c = '\\' then '/' else c) path) sub 0 <> None

(* The deterministic substrate itself: exempt from D1, and the capability
   boundary at which the effect analysis masks ambient effects. *)
let d1_exempt path = path_has path "lib/sim/" || path_has path "util/rng.ml"

(* Lines at which a value named [compare] is bound in this file: a bare
   [compare] below such a binding resolves to it, not to Stdlib's, and is
   not a D5 finding. *)
let compare_binding_lines ast =
  let lines = ref [] in
  let open Ast_iterator in
  let pat self (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_var { txt = "compare"; loc } ->
        lines := loc.Location.loc_start.Lexing.pos_lnum :: !lines
    | _ -> ());
    default_iterator.pat self p
  in
  let it = { default_iterator with pat } in
  it.structure it ast;
  !lines

let path_of_lident lid =
  match Longident.flatten lid with
  | parts -> parts
  | exception _ -> []

let strip_stdlib = function "Stdlib" :: (_ :: _ as rest) -> rest | p -> p

(* An ambient read: what D1 flags and what seeds the effect analysis's
   Ambient_rand and Ambient_time. *)
type ambient = Randomness | Wall_clock

let ambient_read = function
  | "Random" :: _ -> Some Randomness
  | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] ->
      Some Wall_clock
  | _ -> None

(* [M.fn] with [fn] among [fns] and [M] a hash-table module: any module
   whose name ends in "tbl", case-insensitively — Stdlib's Hashtbl, a
   functor instance such as Proc_id.Tbl or Int_tbl, or an alias of one. *)
let hash_table_call parts fns =
  match List.rev parts with
  | fn :: m :: _ ->
      List.exists (String.equal fn) fns
      && String.ends_with ~suffix:"tbl" (String.lowercase_ascii m)
  | _ -> false

(* An enumeration in bucket order: what D2 flags and what seeds the effect
   analysis's Hash_order. *)
let hash_enumeration parts =
  hash_table_call parts
    [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let collect_ident_findings ~path ast =
  let compare_bound_at = compare_binding_lines ast in
  let acc = ref [] in
  let add rule loc message =
    let pos = loc.Location.loc_start in
    acc :=
      {
        rule;
        file = path;
        line = pos.Lexing.pos_lnum;
        col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
        message;
      }
      :: !acc
  in
  let check_path original_parts loc =
    let qualified = List.length original_parts > 1 in
    let parts = strip_stdlib original_parts in
    let ident = String.concat "." original_parts in
    match (ambient_read parts, parts) with
    | Some Randomness, _ ->
        if not (d1_exempt path) then
          add Rules.d1 loc
            (Printf.sprintf
               "%s draws ambient randomness; use the campaign-seeded Rng.t"
               ident)
    | Some Wall_clock, _ ->
        if not (d1_exempt path) then
          add Rules.d1 loc
            (Printf.sprintf "%s reads the wall clock; use Sim.now" ident)
    | None, _ when hash_enumeration parts ->
        add Rules.d2 loc
          (Printf.sprintf "%s enumerates a hash table in unspecified order"
             ident)
    | None, _ when hash_table_call parts [ "find" ] ->
        add Rules.d3 loc
          (Printf.sprintf
             "bare %s raises a contextless Not_found; match on find_opt" ident)
    | None, ([ "List"; ("hd" | "tl") ] | [ "Option"; "get" ]) ->
        add Rules.d3 loc
          (Printf.sprintf
             "%s is partial; make the empty/missing case an explicit match"
             ident)
    | None, [ "Obj"; "magic" ] ->
        add Rules.d4 loc (Printf.sprintf "%s defeats the type system" ident)
    | None, ([ "==" ] | [ "!=" ]) ->
        add Rules.d4 loc
          (Printf.sprintf "physical equality (%s) on structural data" ident)
    | None, [ "compare" ] ->
        let use_line = loc.Location.loc_start.Lexing.pos_lnum in
        let shadowed =
          (not qualified)
          && List.exists (fun l -> l <= use_line) compare_bound_at
        in
        if not shadowed then
          add Rules.d5 loc
            (Printf.sprintf
               "polymorphic %s on protocol data; name the element comparator"
               ident)
    | None, _ -> ()
  in
  let open Ast_iterator in
  let expr self (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_path (path_of_lident txt) loc
    | _ -> ());
    default_iterator.expr self e
  in
  let it = { default_iterator with expr } in
  it.structure it ast;
  List.rev !acc

(* ---------- entry points ---------- *)

let parse_rule =
  {
    Rules.id = "P1";
    severity = Rules.Error;
    title = "source file does not parse";
    hint = "vslint runs the compiler's own parser; fix the syntax error";
    explain = "A file the compiler cannot parse cannot be linted.";
  }

let compare_finding a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> String.compare a.rule.Rules.id b.rule.Rules.id
          | c -> c)
      | c -> c)
  | c -> c

(* A justified allow silences findings of its rule on its own line and the
   line directly below.  Shared by the per-file pass and the whole-program
   rules (C1/A1/B1/S2 findings go through the same gate). *)
let partition_by_suppressions suppressions findings =
  let suppressed_by f =
    List.exists
      (fun s ->
        String.equal s.s_rule f.rule.Rules.id
        && s.s_just <> None
        && (s.s_line = f.line || s.s_line = f.line - 1))
      suppressions
  in
  List.partition suppressed_by findings

(* The compiler's parse of one file, or the P1 finding that it has none. *)
let parse ~path source =
  match
    let lexbuf = Lexing.from_string source in
    Location.init lexbuf path;
    Parse.implementation lexbuf
  with
  | ast -> Ok ast
  | exception exn ->
      let line, msg =
        match exn with
        | Syntaxerr.Error _ -> (1, "syntax error")
        | exn -> (1, Printexc.to_string exn)
      in
      Error { rule = parse_rule; file = path; line; col = 0; message = msg }

(* The per-file rules over a file already parsed and scanned for allows. *)
let lint_parsed ~path ~suppressions parsed =
  let malformed =
    List.filter_map
      (fun s ->
        match s.s_just with
        | None ->
            Some
              {
                rule = Rules.s1;
                file = path;
                line = s.s_line;
                col = s.s_col;
                message =
                  Printf.sprintf
                    "allow %s carries no justification and suppresses nothing"
                    s.s_rule;
              }
        | Some _ -> None)
      suppressions
  in
  let raw =
    match parsed with
    | Ok ast -> collect_ident_findings ~path ast
    | Error unparsed -> [ unparsed ]
  in
  let suppressed, findings = partition_by_suppressions suppressions raw in
  {
    findings = List.sort compare_finding (malformed @ findings);
    suppressed = List.sort compare_finding suppressed;
  }

let lint_source ~path source =
  lint_parsed ~path ~suppressions:(scan_suppressions source)
    (parse ~path source)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file path = lint_source ~path (read_file path)

(* Every .ml under [roots] (files or directories), depth-first in sorted
   order so reports are stable across filesystems. *)
let collect_ml_files roots =
  let rec walk acc path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.sort String.compare
      |> List.fold_left
           (fun acc entry ->
             if String.length entry > 0 && entry.[0] = '.' then acc
             else if entry = "_build" then acc
             else walk acc (Filename.concat path entry))
           acc
    else if
      (* .pp.ml files are dune's preprocessed copies, not source. *)
      Filename.check_suffix path ".ml"
      && not (Filename.check_suffix path ".pp.ml")
    then path :: acc
    else acc
  in
  List.rev (List.fold_left walk [] roots)
