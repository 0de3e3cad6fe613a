#!/usr/bin/env python3
"""Every wire MsgType enumerator must name one payload and be fuzz-covered.

The codec derives its encode and decode dispatch from the Message
variant (src/clash/messages.hpp), each alternative naming its wire tag
as `static constexpr wire::MsgType kType = wire::MsgType::kX;`, and
codec.cpp static_asserts that the tags are distinct. What the compiler
cannot see is an enumerator no struct claims, or one claimed twice. This
check parses the MsgType enum from src/wire/msg_type.hpp and requires
each enumerator to

  1. be bound to exactly one payload struct, and that struct to be an
     alternative of `Message`, and
  2. have that struct exercised in tests/wire/codec_fuzz_test.cpp's
     representative corpus.
"""

import pathlib
import re
import sys

ENUM_RE = re.compile(
    r"enum\s+class\s+MsgType[^{]*\{(?P<body>.*?)\}", re.DOTALL
)
ENUMERATOR_RE = re.compile(r"\b(k\w+)\s*=")
STRUCT_RE = re.compile(r"\bstruct\s+(\w+)\s*\{")
BINDING_RE = re.compile(
    r"\bkType\s*=\s*(?:wire::)?MsgType::(k\w+)\s*;"
)
VARIANT_RE = re.compile(
    r"using\s+Message\s*=\s*std::variant<(?P<body>[^>]*)>", re.DOTALL
)


def parse_enumerators(msg_type_hpp: str) -> list[str]:
    m = ENUM_RE.search(msg_type_hpp)
    if m is None:
        raise RuntimeError("MsgType enum not found in msg_type.hpp")
    return ENUMERATOR_RE.findall(m.group("body"))


def parse_bindings(messages_hpp: str) -> list[tuple[str, str]]:
    """(enumerator, struct) per kType binding: the struct is the nearest
    one opened before the binding."""
    structs = [(m.start(), m.group(1))
               for m in STRUCT_RE.finditer(messages_hpp)]
    bindings = []
    for m in BINDING_RE.finditer(messages_hpp):
        owner = None
        for pos, name in structs:
            if pos < m.start():
                owner = name
        bindings.append((m.group(1), owner or "<no struct>"))
    return bindings


def parse_variant(messages_hpp: str) -> set[str]:
    m = VARIANT_RE.search(messages_hpp)
    if m is None:
        return set()
    return {t.strip() for t in m.group("body").split(",") if t.strip()}


def check(msg_type_hpp: str, messages_hpp: str, fuzz_cpp: str) -> list[str]:
    violations = []
    enumerators = parse_enumerators(msg_type_hpp)
    if not enumerators:
        return ["no MsgType enumerators parsed from msg_type.hpp"]
    bindings = parse_bindings(messages_hpp)
    alternatives = parse_variant(messages_hpp)
    for tag, struct in bindings:
        if tag not in enumerators:
            violations.append(
                f"{struct}: kType names MsgType::{tag}, which msg_type.hpp "
                f"does not declare"
            )
    for name in enumerators:
        structs = [s for tag, s in bindings if tag == name]
        if len(structs) != 1:
            violations.append(
                f"MsgType::{name}: bound to {len(structs)} payload "
                f"struct(s) {structs} in messages.hpp (need exactly one)"
            )
            continue
        struct = structs[0]
        if struct not in alternatives:
            violations.append(
                f"MsgType::{name}: payload struct {struct} is not an "
                f"alternative of Message, so it is never dispatched"
            )
        if not re.search(rf"\b{struct}\b", fuzz_cpp):
            violations.append(
                f"MsgType::{name}: payload struct {struct} missing "
                f"from tests/wire/codec_fuzz_test.cpp's representative "
                f"corpus"
            )
    return violations


def selftest() -> int:
    """Seed each defect; the check must flag exactly it."""
    hpp = "enum class MsgType : std::uint8_t { kPing = 1, };"
    messages = """
    struct Ping {
      static constexpr wire::MsgType kType = wire::MsgType::kPing;
      int x;
    };
    using Message = std::variant<Ping>;
    """
    fuzz = "all.emplace_back(Ping{});"

    # Fully registered enumerator: quiet.
    assert check(hpp, messages, fuzz) == [], check(hpp, messages, fuzz)

    # An enumerator no struct claims.
    hpp_unbound = (
        "enum class MsgType : std::uint8_t { kPing = 1, kBogus = 2, };"
    )
    hits = check(hpp_unbound, messages, fuzz)
    assert len(hits) == 1 and "kBogus" in hits[0], hits
    assert "0 payload" in hits[0], hits

    # One enumerator claimed by two structs.
    twice = messages.replace(
        "using Message",
        "struct Pong {\n"
        "  static constexpr wire::MsgType kType = wire::MsgType::kPing;\n"
        "};\nusing Message",
    )
    hits = check(hpp, twice, fuzz)
    assert len(hits) == 1 and "2 payload" in hits[0], hits

    # A bound struct the variant does not carry.
    hits = check(hpp, messages.replace("std::variant<Ping>",
                                       "std::variant<Other>"), fuzz)
    assert len(hits) == 1 and "not an alternative" in hits[0], hits

    # A tag the enum does not declare.
    stray = messages.replace(
        "using Message",
        "struct Stray {\n"
        "  static constexpr wire::MsgType kType = wire::MsgType::kStray;\n"
        "};\nusing Message",
    )
    hits = check(hpp, stray, fuzz)
    assert len(hits) == 1 and "does not declare" in hits[0], hits

    # Missing fuzz coverage.
    hits = check(hpp, messages, "all.emplace_back(Other{});")
    assert len(hits) == 1 and "corpus" in hits[0], hits

    print("check_msgtype: selftest OK")
    return 0


def main() -> int:
    if "--selftest" in sys.argv:
        return selftest()
    root = pathlib.Path(__file__).resolve().parents[2]
    violations = check(
        (root / "src/wire/msg_type.hpp").read_text(),
        (root / "src/clash/messages.hpp").read_text(),
        (root / "tests/wire/codec_fuzz_test.cpp").read_text(),
    )
    for v in violations:
        print(v, file=sys.stderr)
    if violations:
        print(f"check_msgtype: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("check_msgtype: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
