(* Report rendering and the command-line driver of the [vslint]
   executable, which the @lint dune alias and the benchmark run.

   Every run is whole-program: the per-file syntactic rules and the
   call-graph passes (C1/A1/B1/S2, see {!Whole}) execute together, so the
   exit code always reflects the full rule set.  [--rule] filters what is
   *reported*, not what is analyzed. *)

type format = Human | Json | Sarif

let default_roots = [ "lib"; "bin"; "bench"; "examples" ]

let usage =
  "usage: vslint [--format human|json|sarif] [--rule ID]... [--chains]\n\
  \              [--changed] [--explain ID] [PATH]...\n\
   \n\
   Whole-program lint over every .ml under the given files/directories\n\
   (default: lib bin bench examples): per-site determinism rules plus the\n\
   call-graph passes (effect certification C1, alloc-free proof A1, stale\n\
   suppressions S2, zero-alloc contract B1).  Exits 1 on any unsuppressed\n\
   finding, 2 on usage errors.\n\
   \n\
  \  --format FMT   human (default), json, or sarif (SARIF 2.1.0)\n\
  \  --rule ID      only report this rule (repeatable): D1..D5 C1 A1 S1 S2 B1\n\
  \  --chains       also print each function's effect provenance\n\
  \  --changed      only report findings in files changed per\n\
  \                 git diff --name-only HEAD (analysis stays whole-program)\n\
  \  --explain ID   print the rule's rationale and exit\n"

let json_escape = Sarif.escape

let print_finding_human (f : Lint.finding) =
  Printf.printf "%s:%d:%d: [%s/%s] %s\n" f.Lint.file f.Lint.line f.Lint.col
    f.Lint.rule.Rules.id
    (Rules.severity_to_string f.Lint.rule.Rules.severity)
    f.Lint.message;
  Printf.printf "    hint: %s\n" f.Lint.rule.Rules.hint

let finding_json (f : Lint.finding) =
  Printf.sprintf
    "{\"rule\":\"%s\",\"severity\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"message\":\"%s\",\"hint\":\"%s\"}"
    f.Lint.rule.Rules.id
    (Rules.severity_to_string f.Lint.rule.Rules.severity)
    (json_escape f.Lint.file) f.Lint.line f.Lint.col
    (json_escape f.Lint.message)
    (json_escape f.Lint.rule.Rules.hint)

let explain id =
  match Rules.find id with
  | None ->
      Printf.eprintf "vslint: unknown rule %s (known: %s)\n" id
        (String.concat " " (List.map (fun r -> r.Rules.id) Rules.all));
      2
  | Some r ->
      Printf.printf "%s (%s): %s\n\n%s\n\nfix: %s\n" r.Rules.id
        (Rules.severity_to_string r.Rules.severity)
        r.Rules.title r.Rules.explain r.Rules.hint;
      0

(* Files changed relative to HEAD, per git; None when git is unavailable
   or this is not a work tree. *)
let changed_files () =
  match Unix.open_process_in "git diff --name-only HEAD 2>/dev/null" with
  | exception _ -> None
  | ic ->
      let rec read acc =
        match input_line ic with
        | line -> read (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      let lines = read [] in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some lines
      | _ | (exception _) -> None)

(* Finding paths and git paths may differ in prefix (vslint can be invoked
   from a subdirectory); match on path suffix either way. *)
let same_file a b =
  let la = String.length a and lb = String.length b in
  if la >= lb then String.sub a (la - lb) lb = b
  else String.sub b (lb - la) la = a

(* Run the whole-program pass and print the report; the return value is
   the process exit code. *)
let run ?(format = Human) ?(rules = []) ?(chains = false) ?(changed = false)
    ?paths () =
  let unknown = List.filter (fun id -> Rules.find id = None) rules in
  if unknown <> [] then begin
    Printf.eprintf "vslint: unknown rule(s): %s\n" (String.concat " " unknown);
    2
  end
  else
    let roots =
      match paths with Some (_ :: _ as p) -> p | Some [] | None -> default_roots
    in
    match List.filter (fun p -> not (Sys.file_exists p)) roots with
    | _ :: _ as missing ->
        Printf.eprintf "vslint: no such file or directory: %s\n"
          (String.concat " " missing);
        2
    | [] -> (
        let changed_set =
          if not changed then None
          else
            match changed_files () with
            | Some files -> Some files
            | None ->
                Printf.eprintf
                  "vslint: --changed requires git and a work tree\n";
                exit 2
        in
        let report = Whole.analyze_paths roots in
        let keep (f : Lint.finding) =
          (rules = [] || List.exists (String.equal f.Lint.rule.Rules.id) rules)
          && (match changed_set with
             | None -> true
             | Some files -> List.exists (same_file f.Lint.file) files)
        in
        let findings = List.filter keep report.Whole.findings in
        let suppressed = List.filter keep report.Whole.suppressed in
        (match format with
        | Human ->
            List.iter print_finding_human findings;
            if chains then
              List.iter (fun l -> Printf.printf "chain: %s\n" l)
                report.Whole.chains;
            Printf.printf
              "vslint: %d file(s), %d finding(s), %d suppressed with \
               justification\n"
              report.Whole.files (List.length findings)
              (List.length suppressed)
        | Json ->
            let chains_field =
              if chains then
                Printf.sprintf ",\"chains\":[%s]"
                  (String.concat ","
                     (List.map
                        (fun l -> Printf.sprintf "\"%s\"" (json_escape l))
                        report.Whole.chains))
              else ""
            in
            Printf.printf
              "{\"files\":%d,\"suppressed\":%d,\"findings\":[%s]%s}\n"
              report.Whole.files (List.length suppressed)
              (String.concat "," (List.map finding_json findings))
              chains_field
        | Sarif -> print_string (Sarif.emit ~findings ^ "\n"));
        if findings = [] then 0 else 1)

(* argv-level entry point for bin/vslint. *)
let main argv =
  let rec parse args (format, rules, chains, changed, explain_id, paths) =
    match args with
    | [] -> Ok (format, rules, chains, changed, explain_id, List.rev paths)
    | "--format" :: fmt :: rest -> (
        match fmt with
        | "human" -> parse rest (Human, rules, chains, changed, explain_id, paths)
        | "json" -> parse rest (Json, rules, chains, changed, explain_id, paths)
        | "sarif" -> parse rest (Sarif, rules, chains, changed, explain_id, paths)
        | other -> Error (Printf.sprintf "unknown format %S" other))
    | "--rule" :: id :: rest ->
        parse rest (format, rules @ [ id ], chains, changed, explain_id, paths)
    | "--chains" :: rest ->
        parse rest (format, rules, true, changed, explain_id, paths)
    | "--changed" :: rest ->
        parse rest (format, rules, chains, true, explain_id, paths)
    | "--explain" :: id :: rest ->
        parse rest (format, rules, chains, changed, Some id, paths)
    | ("--help" | "-h") :: _ -> Error ""
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        Error (Printf.sprintf "unknown option %s" arg)
    | path :: rest ->
        parse rest (format, rules, chains, changed, explain_id, path :: paths)
  in
  let args =
    match Array.to_list argv with [] -> [] | _program :: rest -> rest
  in
  match parse args (Human, [], false, false, None, []) with
  | Error "" ->
      print_string usage;
      0
  | Error msg ->
      Printf.eprintf "vslint: %s\n%s" msg usage;
      2
  | Ok (_, _, _, _, Some id, _) -> explain id
  | Ok (format, rules, chains, changed, None, paths) ->
      run ~format ~rules ~chains ~changed ~paths ()
