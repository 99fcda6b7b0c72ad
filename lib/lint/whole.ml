(* Pass 3 of the whole-program analyzer, and the one-stop entry point the
   driver and the test-suite share: run the per-file syntactic pass, build
   the call graph (pass 1), run the effect fixpoint (pass 2), then enforce
   the closure rules —

   C1  functions defined in the protocol layers must be transitively clean
       of Ambient_time/Ambient_rand/Unix_io (capability seam certification);
   A1  functions annotated alloc-free must contain no allocating construct
       and call no resolved function that does;
   B1  every entry of a zero-alloc contract list must carry the
       alloc-free annotation;
   S2  every justified allow must still guard a firing finding.

   All whole-program findings flow through the same justified-allow gate as
   the per-file rules, and the merged report is sorted, so two runs over
   the same sources are byte-identical. *)

(* The protocol layers C1 certifies: everything that must run unchanged
   under both the deterministic sim and a real-OS backend. *)
let protected_dirs =
  [
    "lib/vsync/";
    "lib/core/";
    "lib/gms/";
    "lib/fd/";
    "lib/net/";
    "lib/store/";
    "lib/apps/";
  ]

let protected_file path = List.exists (Lint.path_has path) protected_dirs

type report = {
  findings : Lint.finding list;
  suppressed : Lint.finding list;
  chains : string list;  (* effect-provenance dump, one line per function *)
  files : int;
}

(* ---------- helpers ---------- *)

let finding rule ~file ~line ~col message =
  { Lint.rule; file; line; col; message }

(* The contract list tying the runtime word counts (test_obs, bench obs)
   to the A1 annotations: a toplevel
   [let zero_alloc_contract = [ "path:fn"; ... ]]. *)
let contract_name = "zero_alloc_contract"

let rec strings_of_list_expr (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Pexp_construct ({ txt = Lident "[]"; _ }, None) -> Some []
  | Pexp_construct
      ( { txt = Lident "::"; _ },
        Some { pexp_desc = Pexp_tuple [ head; tail ]; _ } ) -> (
      match (head.Parsetree.pexp_desc, strings_of_list_expr tail) with
      | Pexp_constant (Pconst_string (s, _, _)), Some rest -> Some (s :: rest)
      | _ -> None)
  | _ -> None

let contract_entries files_asts =
  List.concat_map
    (fun (path, ast) ->
      List.concat_map
        (fun (item : Parsetree.structure_item) ->
          match item.Parsetree.pstr_desc with
          | Pstr_value (_, bindings) ->
              List.concat_map
                (fun (vb : Parsetree.value_binding) ->
                  match
                    (vb.pvb_pat.Parsetree.ppat_desc, vb.pvb_expr)
                  with
                  | Ppat_var { txt; loc }, expr
                    when String.equal txt contract_name -> (
                      match strings_of_list_expr expr with
                      | Some entries ->
                          let line = loc.Location.loc_start.Lexing.pos_lnum in
                          [ (path, line, entries) ]
                      | None -> [])
                  | _ -> [])
                bindings
          | _ -> [])
        ast)
    files_asts

(* "lib/net/net.ml:meter_send" matches a def when the file part is a path
   suffix (so "../lib/net/net.ml" still matches) and the function part is
   the def's in-file dotted name. *)
let contract_matches (d : Callgraph.def) entry =
  match String.rindex_opt entry ':' with
  | None -> false
  | Some i ->
      let epath = String.sub entry 0 i in
      let ename = String.sub entry (i + 1) (String.length entry - i - 1) in
      let dname =
        String.concat "." (d.Callgraph.d_chain @ [ d.Callgraph.d_name ])
      in
      String.equal dname ename
      &&
      let fl = String.length d.Callgraph.d_file
      and el = String.length epath in
      fl >= el && String.sub d.Callgraph.d_file (fl - el) el = epath

(* ---------- the analysis ---------- *)

let analyze ~files () =
  (* Each file is parsed and scanned once; both passes read the result. *)
  let per_file =
    List.map
      (fun (path, source) ->
        let parsed = Lint.parse ~path source
        and suppressions = Lint.scan_suppressions source in
        let r = Lint.lint_parsed ~path ~suppressions parsed in
        (path, parsed, r, suppressions, Lint.scan_annotations source))
      files
  in
  let parsed =
    List.filter_map
      (fun (path, parsed, _, _, _) ->
        Option.map (fun ast -> (path, ast)) (Result.to_option parsed))
      per_file
  in
  let graph = Callgraph.build parsed in
  let justified path =
    match List.find_opt (fun (p, _, _, _, _) -> String.equal p path) per_file with
    | Some (_, _, _, sup, _) ->
        List.filter (fun s -> s.Lint.s_just <> None) sup
    | None -> []
  in
  let seed_allowed ~file ~rule ~line =
    List.exists
      (fun s ->
        String.equal s.Lint.s_rule rule
        && (s.Lint.s_line = line || s.Lint.s_line = line - 1))
      (justified file)
  in
  let eff = Effects.analyze graph ~seed_allowed in
  (* --- C1: capability certification of the protocol layers --- *)
  let effectful_protected =
    List.filter
      (fun d ->
        protected_file d.Callgraph.d_file
        && List.exists (fun (e, _) -> Effects.is_ambient e) (Effects.effects eff d))
      graph.Callgraph.defs
  in
  let c1 =
    List.concat_map
      (fun (d : Callgraph.def) ->
        List.filter_map
          (fun (e, origin) ->
            if not (Effects.is_ambient e) then None
            else
              (* Report at the contamination crossing: skip when the effect
                 arrives through another protected function, which carries
                 its own report. *)
              let crossing =
                match origin with
                | Effects.Leaf _ -> true
                | Effects.Via (cid, _) ->
                    not
                      (List.exists
                         (fun p -> String.equal (Callgraph.def_id p) cid)
                         effectful_protected)
              in
              if not crossing then None
              else
                Some
                  (finding Rules.c1 ~file:d.Callgraph.d_file
                     ~line:d.Callgraph.d_line ~col:d.Callgraph.d_col
                     (Printf.sprintf
                        "%s reaches %s outside the Sim capability: %s"
                        d.Callgraph.d_name
                        (Effects.eff_to_string e)
                        (Effects.chain eff
                           (fun f -> List.assoc_opt e (Effects.effects eff f))
                           d))))
          (Effects.effects eff d))
      effectful_protected
  in
  (* --- A1: alloc-free annotations --- *)
  let annotated =
    List.concat_map
      (fun (path, _, _, _, annotations) ->
        List.map
          (fun line ->
            let def =
              List.find_opt
                (fun d ->
                  String.equal d.Callgraph.d_file path
                  && (d.Callgraph.d_line = line || d.Callgraph.d_line = line + 1))
                graph.Callgraph.defs
            in
            (path, line, def))
          annotations)
      per_file
  in
  let annotated_defs =
    List.filter_map (fun (_, _, def) -> def) annotated
  in
  let a1 =
    List.concat_map
      (fun (path, line, def) ->
        match def with
        | None ->
            [
              finding Rules.a1 ~file:path ~line ~col:0
                "alloc-free annotation does not precede a function definition";
            ]
        | Some (d : Callgraph.def) ->
            let intrinsic =
              List.map
                (fun (a : Callgraph.alloc) ->
                  finding Rules.a1 ~file:path ~line:a.Callgraph.a_line
                    ~col:a.Callgraph.a_col
                    (Printf.sprintf "%s allocates under alloc-free %s: %s"
                       d.Callgraph.d_name d.Callgraph.d_name
                       a.Callgraph.a_what))
                d.Callgraph.d_allocs
            in
            let via_calls =
              List.filter_map
                (fun (c : Callgraph.call) ->
                  let callees = Callgraph.resolve graph ~from:d c in
                  let alloc_callee =
                    List.find_opt
                      (fun callee ->
                        Effects.may_alloc eff callee <> None
                        && not
                             (String.equal
                                (Callgraph.def_id callee)
                                (Callgraph.def_id d)))
                      callees
                  in
                  match alloc_callee with
                  | Some callee ->
                      Some
                        (finding Rules.a1 ~file:path ~line:c.Callgraph.c_line
                           ~col:c.Callgraph.c_col
                           (Printf.sprintf
                              "%s calls allocating %s under alloc-free: %s"
                              d.Callgraph.d_name c.Callgraph.c_name
                              (Effects.chain eff (Effects.may_alloc eff) callee)))
                  | None -> (
                      (* Partial application of a resolved function
                         allocates the closure even when the callee is
                         clean. *)
                      match callees with
                      | [] -> None
                      | callees
                        when c.Callgraph.c_args > 0
                             && List.for_all
                                  (fun (e : Callgraph.def) ->
                                    e.Callgraph.d_arity > c.Callgraph.c_args)
                                  callees ->
                          Some
                            (finding Rules.a1 ~file:path
                               ~line:c.Callgraph.c_line ~col:c.Callgraph.c_col
                               (Printf.sprintf
                                  "%s partially applies %s under alloc-free \
                                   (closure)"
                                  d.Callgraph.d_name c.Callgraph.c_name))
                      | _ -> None))
                d.Callgraph.d_calls
            in
            intrinsic @ via_calls)
      annotated
  in
  (* --- B1: the contract and the annotated set name the same
     functions --- *)
  let b1 =
    List.concat_map
      (fun (path, line, entries) ->
        List.filter_map
          (fun entry ->
            let covered =
              List.exists
                (fun d -> contract_matches d entry)
                annotated_defs
            in
            if covered then None
            else
              Some
                (finding Rules.b1 ~file:path ~line ~col:0
                   (Printf.sprintf
                      "contract entry %s is not covered by an alloc-free \
                       annotation"
                      entry)))
          entries)
      (contract_entries parsed)
  in
  (* --- merge, then S2 over the complete raw finding set --- *)
  let whole_raw = c1 @ a1 @ b1 in
  let raw_for path =
    let pf =
      match
        List.find_opt (fun (p, _, _, _, _) -> String.equal p path) per_file
      with
      | Some (_, _, r, _, _) -> r.Lint.findings @ r.Lint.suppressed
      | None -> []
    in
    pf @ List.filter (fun f -> String.equal f.Lint.file path) whole_raw
  in
  let s2 =
    List.concat_map
      (fun (path, _, _, suppressions, _) ->
        let raw = raw_for path in
        List.filter_map
          (fun (s : Lint.suppression) ->
            if s.Lint.s_just = None then None
            else
              let live =
                List.exists
                  (fun (f : Lint.finding) ->
                    String.equal f.Lint.rule.Rules.id s.Lint.s_rule
                    && (f.Lint.line = s.Lint.s_line
                       || f.Lint.line = s.Lint.s_line + 1))
                  raw
              in
              if live then None
              else
                Some
                  (finding Rules.s2 ~file:path ~line:s.Lint.s_line
                     ~col:s.Lint.s_col
                     (Printf.sprintf
                        "allow %s is stale: the rule no longer fires on the \
                         guarded site"
                        s.Lint.s_rule)))
          suppressions)
      per_file
  in
  (* --- suppression gate for the whole-program findings, then merge --- *)
  let whole_by_file =
    List.map
      (fun (path, _, _, suppressions, _) ->
        let mine =
          List.filter
            (fun f -> String.equal f.Lint.file path)
            (whole_raw @ s2)
        in
        Lint.partition_by_suppressions suppressions mine)
      per_file
  in
  let findings =
    List.concat_map (fun (_, _, r, _, _) -> r.Lint.findings) per_file
    @ List.concat_map snd whole_by_file
  in
  let suppressed =
    List.concat_map (fun (_, _, r, _, _) -> r.Lint.suppressed) per_file
    @ List.concat_map fst whole_by_file
  in
  {
    findings = List.sort Lint.compare_finding findings;
    suppressed = List.sort Lint.compare_finding suppressed;
    chains = Effects.dump eff;
    files = List.length files;
  }

(* Convenience: analyze files on disk (roots expanded the same way the
   per-file driver always has). *)
let analyze_paths roots =
  let files = Lint.collect_ml_files roots in
  analyze
    ~files:(List.map (fun path -> (path, Lint.read_file path)) files)
    ()
