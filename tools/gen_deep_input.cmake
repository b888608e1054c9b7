# Writes over-deep parser inputs into DIR for the nesting-bound tests
# (the bounds are MaxParseDepth = 1000 in term/Parser.h and
# MaxDomainNesting = 16 in service/DomainFactory.h):
#   deep_term.imp      x := F(F(...y...));        20,000 applications
#   deep_blocks.imp    while (*) { ... }          20,000 nested loops
#   deep_request.json  one cai-serve request whose program nests
#                      100,000 parentheses
#   deep_domain_request.json
#                      a cai-serve request whose "domain" nests 100,000
#                      parentheses, then an ordinary request
#
#   cmake -DDIR=<output directory> -P gen_deep_input.cmake
string(REPEAT "F(" 20000 OPEN)
string(REPEAT ")" 20000 CLOSE)
file(WRITE ${DIR}/deep_term.imp "x := ${OPEN}y${CLOSE};\n")
string(REPEAT "while (*) {\n" 20000 OPEN)
string(REPEAT "}\n" 20000 CLOSE)
file(WRITE ${DIR}/deep_blocks.imp "x := 0;\n${OPEN}x := x + 1;\n${CLOSE}")
string(REPEAT "(" 100000 OPEN)
string(REPEAT ")" 100000 CLOSE)
file(WRITE ${DIR}/deep_request.json
     "{\"id\":1,\"program\":\"x := ${OPEN}1${CLOSE};\"}\n")
file(WRITE ${DIR}/deep_domain_request.json
     "{\"id\":1,\"program\":\"x := 0;\",\"domain\":\"${OPEN}affine${CLOSE}\"}\n"
     "{\"id\":2,\"program\":\"x := 0; assert(x = 0);\",\"domain\":\"affine\"}\n")
