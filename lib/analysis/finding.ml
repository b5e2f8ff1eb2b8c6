type severity = Error | Warning

let severity_name = function Error -> "error" | Warning -> "warning"

let severity_rank = function Error -> 1 | Warning -> 0

type t = {
  rule : string;
  severity : severity;
  file : string;
  line : int;
  col : int;
  message : string;
}

(* Canonical report order: by file, then position, then rule — independent of
   the order rules happen to run in (the linter holds itself to its own D3). *)
let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> String.compare a.rule b.rule
          | c -> c)
      | c -> c)
  | c -> c

let to_human f =
  Printf.sprintf "%s:%d:%d \xc2\xb7 %s \xc2\xb7 %s [%s]" f.file f.line f.col f.rule
    f.message (severity_name f.severity)

let to_json f =
  Printf.sprintf
    {|{"rule":"%s","severity":"%s","file":"%s","line":%d,"col":%d,"message":"%s"}|}
    (Vmat_obs.Json_text.escape f.rule)
    (severity_name f.severity)
    (Vmat_obs.Json_text.escape f.file) f.line f.col (Vmat_obs.Json_text.escape f.message)

let list_to_json = function
  | [] -> "[]\n"
  | findings ->
      "[\n  " ^ String.concat ",\n  " (List.map to_json findings) ^ "\n]\n"
