(* The project's JSON tree, reader and writer. See json.mli for the byte
   contract. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Malformed of string

(* -- Writer -- *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no nan/infinity literals: 1e999 is a valid number token that
   every float parser reads back as infinity. *)
let number f =
  if Float.is_nan f then "null"
  else if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else Printf.sprintf "%.17g" f

(* Both layouts are one walk; the indented one breaks the line before
   every member or element and before the closing bracket. *)
let render ~indented json =
  let buf = Buffer.create 256 in
  let break depth =
    if indented then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make depth ' ')
    end
  in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number f)
    | Str s -> add_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | Obj [] -> Buffer.add_string buf "{}"
    | List items -> seq depth '[' ']' emit items
    | Obj fields ->
        seq depth '{' '}'
          (fun depth (k, v) ->
            add_string buf k;
            Buffer.add_string buf (if indented then ": " else ":");
            emit depth v)
          fields
  and seq : 'a. int -> char -> char -> (int -> 'a -> unit) -> 'a list -> unit =
   fun depth opening closing emit_item items ->
    Buffer.add_char buf opening;
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        break (depth + 2);
        emit_item (depth + 2) item)
      items;
    break depth;
    Buffer.add_char buf closing
  in
  emit 0 json;
  Buffer.contents buf

let to_string json = render ~indented:false json
let to_string_indented json = render ~indented:true json

(* -- Reader -- *)

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Malformed (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  if !pos + 4 > n then fail "truncated \\u escape";
                  let hex = String.sub s !pos 4 in
                  pos := !pos + 4;
                  let code =
                    try int_of_string ("0x" ^ hex)
                    with _ -> fail "bad \\u escape"
                  in
                  Buffer.add_char buf
                    (if code < 0x100 then Char.chr code else '?')
              | _ -> fail "bad escape");
              go ())
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some v -> v
    | None -> fail (Printf.sprintf "bad number %S" tok)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let members = ref [] in
          let rec members_loop () =
            skip_ws ();
            let k = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            members := (k, v) :: !members;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members_loop ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members_loop ();
          Obj (List.rev !members)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items_loop ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          items_loop ();
          List (List.rev !items)
        end
    | Some '"' -> Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number ())
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

(* -- Hex floats and accessors -- *)

let hex f = Str (Printf.sprintf "%h" f)

let hex_float = function
  | Str s -> (
      try float_of_string s
      with Failure _ -> raise (Malformed ("not a hex float: " ^ s)))
  | _ -> raise (Malformed "hex float field is not a string")

let member_opt key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let member ~ctx key json =
  match member_opt key json with
  | Some v -> v
  | None -> raise (Malformed (ctx ^ ": missing field " ^ key))

let str ~ctx = function
  | Str s -> s
  | _ -> raise (Malformed (ctx ^ ": expected string"))

(* Beyond 2^53 a double no longer holds every integer, and int_of_float
   of a huge value is unspecified (1e19 comes back as 0). *)
let int ~ctx = function
  | Num f when Float.is_integer f && Float.abs f <= 0x1p53 -> int_of_float f
  | _ -> raise (Malformed (ctx ^ ": expected integer"))

let list ~ctx = function
  | List items -> items
  | _ -> raise (Malformed (ctx ^ ": expected list"))
