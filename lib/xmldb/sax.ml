(* SAX-style pull parser: the same lexical grammar as Xml_parser (which
   builds an Elem tree), re-expressed as an event stream over a bounded
   refill buffer.  A document of any size parses in O(depth + buffer)
   memory, which is what lets Summary.build_stream construct a summary
   without materializing a Document.t.

   Equivalence contract with Xml_parser (property-tested in test_xmldb):
   feeding the same bytes produces the same element structure, attribute
   lists, and — once a consumer concatenates the Text events of each
   element and trims the result — the same per-element text.  Errors
   raise the same [Xml_parser.Parse_error] with the same messages and
   positions. *)

type event =
  | Open of { tag : string; attrs : (string * string) list }
  | Text of string
  | Close

(* Byte source with a small lookahead window ([ensure]).  [refill = None]
   means the buffer already holds the whole input (of_string). *)
type reader = {
  refill : (bytes -> int -> int -> int) option;
  mutable buf : Bytes.t;
  mutable rpos : int;  (* cursor within [buf] *)
  mutable rlen : int;  (* end of valid data in [buf] *)
  mutable drained : bool;  (* the refill function returned 0 *)
  mutable line : int;
  mutable col : int;
}

let reader_of_string s =
  {
    refill = None;
    buf = Bytes.of_string s;
    rpos = 0;
    rlen = String.length s;
    drained = true;
    line = 1;
    col = 1;
  }

let reader_of_channel ic =
  {
    refill = Some (fun b pos len -> input ic b pos len);
    buf = Bytes.create 65536;
    rpos = 0;
    rlen = 0;
    drained = false;
    line = 1;
    col = 1;
  }

(* Make at least [n] bytes (or everything up to end of input) available at
   [rpos]; [n] never exceeds [lookahead], far below the buffer size.  This
   is the slow path of every primitive below: each first checks the
   window itself and only calls [ensure] when it runs dry, so a byte
   inside the window costs no refill check. *)
let ensure r n =
  if r.rlen - r.rpos < n && not r.drained then begin
    match r.refill with
    | None -> ()
    | Some read ->
      if r.rpos > 0 then begin
        Bytes.blit r.buf r.rpos r.buf 0 (r.rlen - r.rpos);
        r.rlen <- r.rlen - r.rpos;
        r.rpos <- 0
      end;
      while r.rlen - r.rpos < n && not r.drained do
        let k = read r.buf r.rlen (Bytes.length r.buf - r.rlen) in
        if k = 0 then r.drained <- true else r.rlen <- r.rlen + k
      done
  end

let fail r message =
  raise (Xml_parser.Parse_error { line = r.line; column = r.col; message })

let eof r =
  r.rpos >= r.rlen
  && begin
    ensure r 1;
    r.rpos >= r.rlen
  end

let peek r = if eof r then '\000' else Bytes.get r.buf r.rpos

let peek2 r =
  ensure r 2;
  if r.rlen - r.rpos < 2 then '\000' else Bytes.get r.buf (r.rpos + 1)

let advance r =
  if not (eof r) then begin
    if Bytes.get r.buf r.rpos = '\n' then begin
      r.line <- r.line + 1;
      r.col <- 1
    end
    else r.col <- r.col + 1;
    r.rpos <- r.rpos + 1
  end

(* Consume window bytes up to (not including) the first [c1] or [c2] or
   the window's end, keeping line and column current. *)
let scan_until r c1 c2 =
  let buf = r.buf and lim = r.rlen in
  let p = ref r.rpos and line = ref r.line and col = ref r.col in
  let go = ref true in
  while !go && !p < lim do
    let ch = Bytes.get buf !p in
    if Char.equal ch c1 || Char.equal ch c2 then go := false
    else begin
      if ch = '\n' then begin
        incr line;
        col := 1
      end
      else incr col;
      incr p
    end
  done;
  r.rpos <- !p;
  r.line <- !line;
  r.col <- !col

let skip_ws r =
  while
    (not (eof r)) && (match peek r with ' ' | '\t' | '\r' | '\n' -> true | _ -> false)
  do
    advance r
  done

let expect r ch =
  if Char.equal (peek r) ch then advance r
  else fail r (Printf.sprintf "expected %C, found %C" ch (peek r))

(* In-place comparison with the next [String.length s] bytes. *)
let looking_at r s =
  let n = String.length s in
  ensure r n;
  r.rlen - r.rpos >= n
  &&
  let rec eq k = k >= n || (Char.equal (Bytes.get r.buf (r.rpos + k)) s.[k] && eq (k + 1)) in
  eq 0

let skip_string r s =
  if looking_at r s then
    for _ = 1 to String.length s do
      advance r
    done
  else fail r (Printf.sprintf "expected %S" s)

let skip_until r s =
  let rec go () =
    if eof r then fail r (Printf.sprintf "unterminated construct, expected %S" s)
    else if looking_at r s then skip_string r s
    else begin
      advance r;
      go ()
    end
  in
  go ()

let is_name_start ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch = '_' || ch = ':'

let is_name_char ch =
  is_name_start ch || (ch >= '0' && ch <= '9') || ch = '-' || ch = '.'

(* Names are scanned in bulk inside the window (they hold no newline, so
   the column moves by their length); a name that runs into the window's
   end continues byte by byte across the refill. *)
let parse_name r =
  if not (is_name_start (peek r)) then
    fail r (Printf.sprintf "expected a name, found %C" (peek r));
  let start = r.rpos in
  let p = ref start in
  while !p < r.rlen && is_name_char (Bytes.get r.buf !p) do
    incr p
  done;
  r.col <- r.col + (!p - start);
  r.rpos <- !p;
  if !p < r.rlen || r.drained then Bytes.sub_string r.buf start (!p - start)
  else begin
    let b = Buffer.create 32 in
    Buffer.add_subbytes b r.buf start (!p - start);
    while (not (eof r)) && is_name_char (peek r) do
      Buffer.add_char b (peek r);
      advance r
    done;
    Buffer.contents b
  end

(* Decode an entity reference starting just after '&'. *)
let parse_entity r =
  let b = Buffer.create 12 in
  while (not (eof r)) && peek r <> ';' && Buffer.length b < 12 do
    Buffer.add_char b (peek r);
    advance r
  done;
  if peek r <> ';' then fail r "unterminated entity reference";
  advance r;
  let name = Buffer.contents b in
  match name with
  | "lt" -> "<"
  | "gt" -> ">"
  | "amp" -> "&"
  | "apos" -> "'"
  | "quot" -> "\""
  | _ ->
    if String.length name > 1 && name.[0] = '#' then begin
      let code =
        try
          if name.[1] = 'x' || name.[1] = 'X' then
            int_of_string ("0x" ^ String.sub name 2 (String.length name - 2))
          else int_of_string (String.sub name 1 (String.length name - 1))
        with Failure _ -> fail r (Printf.sprintf "bad character reference &%s;" name)
      in
      if code < 0x80 then String.make 1 (Char.chr code)
      else begin
        let b = Buffer.create 4 in
        if code < 0x800 then begin
          Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end
        else if code < 0x10000 then begin
          Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end;
        Buffer.contents b
      end
    end
    else fail r (Printf.sprintf "unknown entity &%s;" name)

let parse_attr_value r =
  let quote = peek r in
  if quote <> '"' && quote <> '\'' then fail r "expected quoted attribute value";
  advance r;
  let b = Buffer.create 16 in
  let rec go () =
    let start = r.rpos in
    scan_until r quote '&';
    Buffer.add_subbytes b r.buf start (r.rpos - start);
    if eof r then fail r "unterminated attribute value"
    else if Char.equal (peek r) quote then advance r
    else if peek r = '&' then begin
      advance r;
      Buffer.add_string b (parse_entity r);
      go ()
    end
    else go ()
  in
  go ();
  Buffer.contents b

let parse_attrs r =
  let rec go acc =
    skip_ws r;
    if is_name_start (peek r) then begin
      let name = parse_name r in
      skip_ws r;
      expect r '=';
      skip_ws r;
      let value = parse_attr_value r in
      go ((name, value) :: acc)
    end
    else List.rev acc
  in
  go []

let trim_text s =
  let n = String.length s in
  let is_ws ch = ch = ' ' || ch = '\t' || ch = '\r' || ch = '\n' in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && is_ws s.[!i] do
    incr i
  done;
  while !j >= !i && is_ws s.[!j] do
    decr j
  done;
  if !j < !i then "" else String.sub s !i (!j - !i + 1)

(* Skip prolog material: XML declaration, comments, PIs, DOCTYPE. *)
let skip_prolog r =
  let rec go () =
    skip_ws r;
    if looking_at r "<?" then begin
      skip_string r "<?";
      skip_until r "?>";
      go ()
    end
    else if looking_at r "<!--" then begin
      skip_string r "<!--";
      skip_until r "-->";
      go ()
    end
    else if looking_at r "<!DOCTYPE" then begin
      skip_string r "<!DOCTYPE";
      let depth = ref 0 in
      let rec scan () =
        if eof r then fail r "unterminated DOCTYPE"
        else
          match peek r with
          | '[' ->
            incr depth;
            advance r;
            scan ()
          | ']' ->
            decr depth;
            advance r;
            scan ()
          | '>' when !depth = 0 -> advance r
          | _ ->
            advance r;
            scan ()
      in
      scan ();
      go ()
    end
  in
  go ()

type t = {
  r : reader;
  mutable stack : string list;  (* open elements, innermost first *)
  mutable state : [ `Prolog | `Content | `Epilog | `Done ];
  mutable pending : event option;  (* Close queued behind a self-closing Open *)
}

let of_string s = { r = reader_of_string s; stack = []; state = `Prolog; pending = None }

let of_channel ic =
  { r = reader_of_channel ic; stack = []; state = `Prolog; pending = None }

(* Consume "<tag attrs" just after the '<'; returns the Open event and
   whether the element was self-closing. *)
let parse_open t =
  let r = t.r in
  expect r '<';
  let tag = parse_name r in
  let attrs = parse_attrs r in
  skip_ws r;
  if looking_at r "/>" then begin
    skip_string r "/>";
    (Open { tag; attrs }, true)
  end
  else begin
    expect r '>';
    (Open { tag; attrs }, false)
  end

let close_element t =
  match t.stack with
  | [] -> assert false
  | _ :: rest ->
    t.stack <- rest;
    if List.is_empty rest then t.state <- `Epilog

(* One contiguous run of character data: raw text, entity references, and
   CDATA sections, ended by markup or end of input.  Comments and PIs also
   end the run — the consumer concatenates runs per element, so the result
   matches Xml_parser's single accumulating buffer.  Plain text is scanned
   in bulk inside the window; a run that is one plain span ended by
   markup (the common case) is copied out once, with no buffer. *)
let parse_text_run t =
  let r = t.r in
  let start = r.rpos in
  scan_until r '<' '&';
  let first = Bytes.sub_string r.buf start (r.rpos - start) in
  if r.rpos < r.rlen && Bytes.get r.buf r.rpos = '<' && not (looking_at r "<![CDATA[")
  then first
  else begin
    let b = Buffer.create (String.length first + 64) in
    Buffer.add_string b first;
    let rec go () =
      if eof r then ()
      else if peek r = '<' then begin
        if looking_at r "<![CDATA[" then begin
          skip_string r "<![CDATA[";
          let rec find () =
            if eof r then fail r "unterminated CDATA section"
            else if looking_at r "]]>" then skip_string r "]]>"
            else begin
              let start = r.rpos in
              scan_until r ']' ']';
              if r.rpos > start then
                Buffer.add_subbytes b r.buf start (r.rpos - start)
              else begin
                (* a ']' that does not open "]]>" *)
                Buffer.add_char b (peek r);
                advance r
              end;
              find ()
            end
          in
          find ();
          go ()
        end
      end
      else if peek r = '&' then begin
        advance r;
        Buffer.add_string b (parse_entity r);
        go ()
      end
      else begin
        let start = r.rpos in
        scan_until r '<' '&';
        Buffer.add_subbytes b r.buf start (r.rpos - start);
        go ()
      end
    in
    go ();
    Buffer.contents b
  end

let rec next t =
  match t.pending with
  | Some ev ->
    t.pending <- None;
    close_element t;
    Some ev
  | None -> (
    let r = t.r in
    match t.state with
    | `Done -> None
    | `Epilog ->
      skip_prolog r;
      skip_ws r;
      if not (eof r) then fail r "trailing content after root element";
      t.state <- `Done;
      None
    | `Prolog ->
      skip_prolog r;
      if eof r then fail r "empty document";
      let ev, self_closing = parse_open t in
      let tag = match ev with Open { tag; _ } -> tag | _ -> assert false in
      t.stack <- [ tag ];
      t.state <- `Content;
      if self_closing then t.pending <- Some Close;
      Some ev
    | `Content ->
      let top = match t.stack with tag :: _ -> tag | [] -> assert false in
      if eof r then fail r (Printf.sprintf "unterminated element <%s>" top)
      else if peek r = '<' then begin
        match peek2 r with
        | '/' ->
          skip_string r "</";
          skip_ws r;
          let close = parse_name r in
          if not (String.equal close top) then
            fail r
              (Printf.sprintf "mismatched tags: <%s> closed by </%s>" top close);
          skip_ws r;
          expect r '>';
          close_element t;
          Some Close
        | '!' ->
          if looking_at r "<!--" then begin
            skip_string r "<!--";
            skip_until r "-->";
            next t
          end
          else if looking_at r "<![CDATA[" then begin
            let text = parse_text_run t in
            if String.equal text "" then next t else Some (Text text)
          end
          else fail r "unexpected markup declaration inside element"
        | '?' ->
          skip_string r "<?";
          skip_until r "?>";
          next t
        | _ ->
          let ev, self_closing = parse_open t in
          let tag = match ev with Open { tag; _ } -> tag | _ -> assert false in
          t.stack <- tag :: t.stack;
          if self_closing then t.pending <- Some Close;
          Some ev
      end
      else begin
        let text = parse_text_run t in
        if String.equal text "" then next t else Some (Text text)
      end)

let fold f init t =
  let rec go acc = match next t with None -> acc | Some ev -> go (f acc ev) in
  go init
