"""The rewrite rules, one module per rule (R3 and R3b share `r3`).

Importing a module registers its handlers with `symsum.rewrite.rule`;
`symsum.rewrite.apply_rule` imports a rule's module, as named in
`symsum.rewrite.RULE_MODULES`, the first time a step names the rule.
"""
