(* The typed event schema.  Sits below lib/sim in the dependency order, so
   the process, view and message id records are defined here; Proc_id.t,
   View.Id.t and Oracle.msg_id are these records, and emission sites pass
   protocol ids straight through. *)

type proc = { node : int; inc : int }

type vid = { epoch : int; proposer : proc }

(* vslint: alloc-free *)
let add_proc buf p =
  Buffer.add_char buf (if p.inc < 0 then 'n' else 'p');
  Json.add_int buf p.node;
  if p.inc > 0 then begin
    Buffer.add_char buf '.';
    Json.add_int buf p.inc
  end

let render_with add v =
  let buf = Buffer.create 16 in
  add buf v;
  Buffer.contents buf

let proc_to_string p = render_with add_proc p

let proc_of_string s =
  let len = String.length s in
  if len < 2 then None
  else
    let rest = String.sub s 1 (len - 1) in
    match s.[0] with
    | 'n' ->
        Option.map (fun node -> { node; inc = -1 }) (int_of_string_opt rest)
    | 'p' -> (
        match String.index_opt rest '.' with
        | None -> Option.map (fun node -> { node; inc = 0 }) (int_of_string_opt rest)
        | Some i -> (
            let node_s = String.sub rest 0 i in
            let inc_s = String.sub rest (i + 1) (String.length rest - i - 1) in
            match (int_of_string_opt node_s, int_of_string_opt inc_s) with
            | Some node, Some inc when inc >= 0 -> Some { node; inc }
            | _ -> None))
    | _ -> None

(* vslint: alloc-free *)
let add_vid buf v =
  Buffer.add_char buf 'v';
  Json.add_int buf v.epoch;
  Buffer.add_char buf '@';
  add_proc buf v.proposer

let vid_to_string v = render_with add_vid v

let vid_of_string s =
  let len = String.length s in
  if len < 2 || s.[0] <> 'v' then None
  else
    match String.index_opt s '@' with
    | None -> None
    | Some i -> (
        let epoch_s = String.sub s 1 (i - 1) in
        let proc_s = String.sub s (i + 1) (len - i - 1) in
        match (int_of_string_opt epoch_s, proc_of_string proc_s) with
        | Some epoch, Some proposer -> Some { epoch; proposer }
        | _ -> None)

type msg = { origin : proc; mseq : int }

(* vslint: alloc-free *)
let add_msg buf m =
  add_proc buf m.origin;
  Buffer.add_char buf '#';
  Json.add_int buf m.mseq

let msg_to_string m = render_with add_msg m

let msg_of_string s =
  match String.index_opt s '#' with
  | None -> None
  | Some i -> (
      let proc_s = String.sub s 0 i in
      let seq_s = String.sub s (i + 1) (String.length s - i - 1) in
      match (proc_of_string proc_s, int_of_string_opt seq_s) with
      | Some origin, Some mseq when mseq >= 0 -> Some { origin; mseq }
      | _ -> None)

let compare_proc a b =
  match Int.compare a.node b.node with
  | 0 -> Int.compare a.inc b.inc
  | c -> c

let compare_vid a b =
  match Int.compare a.epoch b.epoch with
  | 0 -> compare_proc a.proposer b.proposer
  | c -> c

let compare_msg a b =
  match compare_proc a.origin b.origin with
  | 0 -> Int.compare a.mseq b.mseq
  | c -> c

let equal_proc a b = Int.equal a.node b.node && Int.equal a.inc b.inc

let hash_proc p = (p.node * 65599) + p.inc

module Proc_tbl = Vs_util.Hashtblx.Make (struct
  type t = proc

  let equal = equal_proc

  let hash = hash_proc

  let compare = compare_proc
end)

module Msg_tbl = Vs_util.Hashtblx.Make (struct
  type t = msg

  let equal a b = Int.equal a.mseq b.mseq && equal_proc a.origin b.origin

  let hash m = (hash_proc m.origin * 65599) + m.mseq

  let compare = compare_msg
end)

type t =
  | Send of {
      src : proc;
      dst : proc;
      kind : string;
      bytes : int;
      msg : msg option;
    }
  | Recv of { src : proc; dst : proc; kind : string; msg : msg option }
  | Drop of {
      src : proc;
      dst : proc;
      kind : string;
      reason : string;
      msg : msg option;
    }
  | Dup of { src : proc; dst : proc; kind : string; msg : msg option }
  | Retransmit of { proc : proc; origin : proc; count : int; peer : bool }
  | Backoff of { proc : proc; dst : proc; attempt : int; delay : float }
  | Suspect of { proc : proc; peer : proc }
  | Unsuspect of { proc : proc; peer : proc }
  | Propose of { proc : proc; vid : vid; members : proc list }
  | Flush of { proc : proc; vid : vid; seen : int }
  | Install of { proc : proc; vid : vid; members : proc list; sync : int }
  | Eview of {
      proc : proc;
      vid : vid;
      eseq : int;
      cause : string;
      subviews : int;
      svsets : int;
    }
  | Mode_change of {
      proc : proc;
      from_mode : string;
      into_mode : string;
      cause : string;
    }
  | Settle of {
      proc : proc;
      vid : vid;
      transfer : bool;
      creation : string;
      merging : bool;
      clusters : int;
    }
  | Task_start of { proc : proc; task : string; vid : vid }
  | Task_done of { proc : proc; task : string; vid : vid }
  | Crash of { proc : proc }
  | Partition of { components : int list list }
  | Heal
  | Corrupt of { proc : proc; field : string; detail : string }
  | Quarantine of {
      bound : int;
      opened : float;
      cut : float;
      views : int;
      quarantined : int;
    }
  | Note of { component : string; message : string }

let component = function
  | Send _ | Recv _ | Drop _ | Dup _ | Crash _ | Partition _ | Heal
  | Corrupt _ ->
      "net"
  | Quarantine _ -> "harness"
  | Retransmit _ | Backoff _ -> "vsync"
  | Suspect _ | Unsuspect _ -> "fd"
  | Propose _ | Flush _ | Install _ -> "gms"
  | Eview _ -> "evs"
  | Mode_change _ | Settle _ -> "mode"
  | Task_start _ | Task_done _ -> "app"
  | Note { component = c; _ } -> c

let type_name = function
  | Send _ -> "send"
  | Recv _ -> "recv"
  | Drop _ -> "drop"
  | Dup _ -> "dup"
  | Retransmit _ -> "retransmit"
  | Backoff _ -> "backoff"
  | Suspect _ -> "suspect"
  | Unsuspect _ -> "unsuspect"
  | Propose _ -> "propose"
  | Flush _ -> "flush"
  | Install _ -> "install"
  | Eview _ -> "eview"
  | Mode_change _ -> "mode"
  | Settle _ -> "settle"
  | Task_start _ -> "task-start"
  | Task_done _ -> "task-done"
  | Crash _ -> "crash"
  | Partition _ -> "partition"
  | Heal -> "heal"
  | Corrupt _ -> "corrupt"
  | Quarantine _ -> "quarantine"
  | Note _ -> "note"

let all_type_names =
  [
    "send"; "recv"; "drop"; "dup"; "retransmit"; "backoff"; "suspect";
    "unsuspect"; "propose"; "flush"; "install"; "eview"; "mode"; "settle";
    "task-start"; "task-done"; "crash"; "partition"; "heal"; "corrupt";
    "quarantine"; "note";
  ]

(* Only the two arrival-time reasons kill a copy already on the wire; any
   other reason, including one Net never emits, is a send-time kill. *)
let send_time_drop = function
  | "dst-dead" | "partition-inflight" -> false
  | _ -> true

let members_to_string ms = String.concat "," (List.map proc_to_string ms)

(* " [p0#3]" when the payload carries a correlation identity, "" otherwise. *)
let msg_suffix = function
  | None -> ""
  | Some m -> " [" ^ msg_to_string m ^ "]"

let render = function
  | Send { src; dst; kind; bytes; msg } ->
      Printf.sprintf "send %s -> %s %s (%dB)%s" (proc_to_string src)
        (proc_to_string dst) kind bytes (msg_suffix msg)
  | Recv { src; dst; kind; msg } ->
      Printf.sprintf "recv %s -> %s %s%s" (proc_to_string src)
        (proc_to_string dst) kind (msg_suffix msg)
  | Drop { src; dst; kind; reason; msg } ->
      Printf.sprintf "drop %s -> %s %s (%s)%s" (proc_to_string src)
        (proc_to_string dst) kind reason (msg_suffix msg)
  | Dup { src; dst; kind; msg } ->
      Printf.sprintf "dup %s -> %s %s%s" (proc_to_string src)
        (proc_to_string dst) kind (msg_suffix msg)
  | Retransmit { proc; origin; count; peer } ->
      Printf.sprintf "%s retransmit %d of %s's stream%s" (proc_to_string proc)
        count (proc_to_string origin)
        (if peer then " (peer-served)" else "")
  | Backoff { proc; dst; attempt; delay } ->
      Printf.sprintf "%s retry -> %s attempt %d after %.4f"
        (proc_to_string proc) (proc_to_string dst) attempt delay
  | Suspect { proc; peer } ->
      Printf.sprintf "%s suspects %s" (proc_to_string proc)
        (proc_to_string peer)
  | Unsuspect { proc; peer } ->
      Printf.sprintf "%s trusts %s" (proc_to_string proc) (proc_to_string peer)
  | Propose { proc; vid; members } ->
      Printf.sprintf "%s propose %s {%s}" (proc_to_string proc)
        (vid_to_string vid) (members_to_string members)
  | Flush { proc; vid; seen } ->
      Printf.sprintf "%s flush-ack %s (%d seen)" (proc_to_string proc)
        (vid_to_string vid) seen
  | Install { proc; vid; members; sync } ->
      Printf.sprintf "%s install %s{%s} (+%d sync)" (proc_to_string proc)
        (vid_to_string vid) (members_to_string members) sync
  | Eview { proc; vid; eseq; cause; subviews; svsets } ->
      Printf.sprintf "%s eview %s#%d %s (%d subviews, %d sv-sets)"
        (proc_to_string proc) (vid_to_string vid) eseq cause subviews svsets
  | Mode_change { proc; from_mode; into_mode; cause } ->
      Printf.sprintf "%s %s: %s -> %s" (proc_to_string proc) cause from_mode
        into_mode
  | Settle { proc; vid; transfer; creation; merging; clusters } ->
      Printf.sprintf
        "%s settling in %s: transfer=%b creation=%s merging=%b clusters=%d"
        (proc_to_string proc) (vid_to_string vid) transfer creation merging
        clusters
  | Task_start { proc; task; vid } ->
      Printf.sprintf "%s %s start in %s" (proc_to_string proc) task
        (vid_to_string vid)
  | Task_done { proc; task; vid } ->
      Printf.sprintf "%s %s done in %s" (proc_to_string proc) task
        (vid_to_string vid)
  | Crash { proc } -> "crash " ^ proc_to_string proc
  | Partition { components } ->
      Printf.sprintf "partition [%s]"
        (String.concat " | "
           (List.map
              (fun nodes -> String.concat "," (List.map string_of_int nodes))
              components))
  | Heal -> "heal"
  | Corrupt { proc; field; detail } ->
      Printf.sprintf "corrupt %s %s (%s)" (proc_to_string proc) field detail
  | Quarantine { bound; opened; cut; views; quarantined } ->
      if cut < 0. then
        Printf.sprintf
          "quarantine open: %d/%d recovery views after transient faults \
           (opened t=%.3f, %d violation(s) quarantined)"
          views bound opened quarantined
      else
        Printf.sprintf
          "quarantine [%.3f, %.3f): %d views (bound %d), %d violation(s) \
           quarantined"
          opened cut views bound quarantined
  | Note { message; _ } -> message

(* Structural accessors for the read side (query / lineage / explain): every
   process, view and message identity an event mentions, in the order the
   payload states them. *)

let procs = function
  | Send { src; dst; _ } | Recv { src; dst; _ } | Drop { src; dst; _ }
  | Dup { src; dst; _ } ->
      [ src; dst ]
  | Retransmit { proc; origin; _ } -> [ proc; origin ]
  | Backoff { proc; dst; _ } -> [ proc; dst ]
  | Suspect { proc; peer } | Unsuspect { proc; peer } -> [ proc; peer ]
  | Propose { proc; members; _ } | Install { proc; members; _ } ->
      proc :: members
  | Flush { proc; _ } | Eview { proc; _ } | Mode_change { proc; _ }
  | Settle { proc; _ } | Task_start { proc; _ } | Task_done { proc; _ }
  | Crash { proc } | Corrupt { proc; _ } ->
      [ proc ]
  | Partition _ | Heal | Quarantine _ | Note _ -> []

let vids = function
  | Propose { vid; _ } | Flush { vid; _ } | Install { vid; _ }
  | Eview { vid; _ } | Settle { vid; _ } | Task_start { vid; _ }
  | Task_done { vid; _ } ->
      [ vid ]
  | Send _ | Recv _ | Drop _ | Dup _ | Retransmit _ | Backoff _ | Suspect _
  | Unsuspect _ | Mode_change _ | Crash _ | Partition _ | Heal | Corrupt _
  | Quarantine _ | Note _ ->
      []

let msg_of = function
  | Send { msg; _ } | Recv { msg; _ } | Drop { msg; _ } | Dup { msg; _ } -> msg
  | Retransmit _ | Backoff _ | Suspect _ | Unsuspect _ | Propose _ | Flush _
  | Install _ | Eview _ | Mode_change _ | Settle _ | Task_start _
  | Task_done _ | Crash _ | Partition _ | Heal | Corrupt _ | Quarantine _
  | Note _ ->
      None
