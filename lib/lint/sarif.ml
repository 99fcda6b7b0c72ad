(* SARIF 2.1.0 emission for vslint reports.

   SARIF (Static Analysis Results Interchange Format) is the interchange
   format code-review UIs ingest; emitting it makes vslint findings
   first-class annotations anywhere a SARIF uploader exists.  The emitter
   is deliberately minimal — tool.driver with the full rule table, one
   result per finding — and deliberately deterministic: no timestamps, no
   GUIDs, rule and result order fixed by the (sorted) report, so the same
   tree always produces byte-identical SARIF.  test/sarif_sample.sarif
   pins the output and test_lint validates its shape. *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let level_of_severity = function
  | Rules.Error -> "error"
  | Rules.Warning -> "warning"

let rule_json (r : Rules.t) =
  Printf.sprintf
    "{\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"},\"fullDescription\":{\"text\":\"%s\"},\"help\":{\"text\":\"%s\"},\"defaultConfiguration\":{\"level\":\"%s\"}}"
    (escape r.Rules.id) (escape r.Rules.title) (escape r.Rules.explain)
    (escape r.Rules.hint)
    (level_of_severity r.Rules.severity)

let rule_index id =
  let rec go i = function
    | [] -> -1
    | (r : Rules.t) :: rest -> if String.equal r.Rules.id id then i else go (i + 1) rest
  in
  go 0 Rules.all

(* SARIF columns are 1-based; vslint columns are 0-based byte offsets. *)
let result_json (f : Lint.finding) =
  Printf.sprintf
    "{\"ruleId\":\"%s\",\"ruleIndex\":%d,\"level\":\"%s\",\"message\":{\"text\":\"%s\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]}"
    (escape f.Lint.rule.Rules.id)
    (rule_index f.Lint.rule.Rules.id)
    (level_of_severity f.Lint.rule.Rules.severity)
    (escape f.Lint.message) (escape f.Lint.file) f.Lint.line (f.Lint.col + 1)

let emit ~findings =
  Printf.sprintf
    "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"vslint\",\"informationUri\":\"https://example.invalid/vslint\",\"version\":\"2.0.0\",\"rules\":[%s]}},\"results\":[%s]}]}"
    (String.concat "," (List.map rule_json Rules.all))
    (String.concat "," (List.map result_json findings))
