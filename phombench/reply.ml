(* The phomd reply line, taken apart: ["ok" | "error"], the verb word, and
   every [key=value] token after it. The benchmark reads answers (quality,
   mapped, value), outcomes (status) and provenance (cache, width) from
   these fields; it never interprets the free-text rest. *)

type t = {
  ok : bool;
  verb : string;  (** second word: "solve", "count", "edited", "pong", ... *)
  fields : (string * string) list;
  raw : string;
}

let parse raw =
  let words = List.filter (( <> ) "") (String.split_on_char ' ' raw) in
  let fields ws =
    List.filter_map
      (fun w ->
        match String.index_opt w '=' with
        | Some i ->
            Some (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
        | None -> None)
      ws
  in
  match words with
  | "ok" :: verb :: rest -> { ok = true; verb; fields = fields rest; raw }
  | "ok" :: [] -> { ok = true; verb = ""; fields = []; raw }
  | _ :: rest -> { ok = false; verb = ""; fields = fields rest; raw }
  | [] -> { ok = false; verb = ""; fields = []; raw }

let field r k = List.assoc_opt k r.fields
let int_field r k = Option.bind (field r k) int_of_string_opt

(* [status=complete] is the only status that counts as an answer: an
   [exhausted(...)] reply is the daemon giving up on the request *)
let complete r = field r "status" = Some "complete"

(* [cache=closure:hit,mat:hit,cands:miss] as (artifact, provenance) pairs *)
let cache r =
  match field r "cache" with
  | None -> []
  | Some s ->
      List.filter_map
        (fun item ->
          match String.index_opt item ':' with
          | Some i ->
              Some
                ( String.sub item 0 i,
                  String.sub item (i + 1) (String.length item - i - 1) )
          | None -> None)
        (String.split_on_char ',' s)

let width r = int_field r "width"

(* [mapped=3/11] → 3 *)
let mapped r =
  Option.bind (field r "mapped") (fun s ->
      match String.index_opt s '/' with
      | Some i -> int_of_string_opt (String.sub s 0 i)
      | None -> int_of_string_opt s)
