//! Recursive-descent parser for policy expressions.
//!
//! Accepts both the Fabric configuration spelling and the paper's informal
//! spelling:
//!
//! * `AND('Org1MSP.peer', 'Org2MSP.peer')`
//! * `OR('Org1MSP.member')`
//! * `OutOf(2, 'Org1MSP.peer', 'Org2MSP.peer', 'Org3MSP.peer')`
//! * `2OutOf(org1.peer, org2.peer, org3.peer)` (paper §IV-A5)
//! * implicitMeta: `MAJORITY Endorsement`, `ANY Readers`, `ALL Writers`

use crate::ast::{ImplicitMetaPolicy, ImplicitMetaRule, Principal, PrincipalRole, SignaturePolicy};
use fabric_types::Role;
use std::fmt;

/// Error parsing a policy expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    /// Byte offset in the input where the error was detected.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "policy parse error at {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParsePolicyError {}

/// Parses a signature policy expression.
pub fn parse_signature_policy(expr: &str) -> Result<SignaturePolicy, ParsePolicyError> {
    let mut p = Parser::new(expr);
    let policy = p.parse_term()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("unexpected trailing input"));
    }
    Ok(policy)
}

/// Parses an implicitMeta policy expression (`MAJORITY Endorsement`).
pub fn parse_implicit_meta(expr: &str) -> Result<ImplicitMetaPolicy, ParsePolicyError> {
    let trimmed = expr.trim();
    let mut parts = trimmed.split_whitespace();
    let rule_word = parts.next().unwrap_or("");
    let rule = match rule_word {
        "ANY" => ImplicitMetaRule::Any,
        "ALL" => ImplicitMetaRule::All,
        "MAJORITY" => ImplicitMetaRule::Majority,
        _ => {
            return Err(ParsePolicyError {
                position: 0,
                message: format!("expected ANY/ALL/MAJORITY, found {rule_word:?}"),
            })
        }
    };
    let sub_policy = parts.next().ok_or_else(|| ParsePolicyError {
        position: rule_word.len(),
        message: "expected sub-policy name after rule".into(),
    })?;
    if parts.next().is_some() {
        return Err(ParsePolicyError {
            position: trimmed.len(),
            message: "unexpected trailing input".into(),
        });
    }
    Ok(ImplicitMetaPolicy {
        rule,
        sub_policy: sub_policy.to_string(),
    })
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> ParsePolicyError {
        ParsePolicyError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), ParsePolicyError> {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    /// Reads a bare word: letters, digits, `_`, `-`, `.`.
    fn word(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        &self.input[start..self.pos]
    }

    fn parse_term(&mut self) -> Result<SignaturePolicy, ParsePolicyError> {
        self.skip_ws();
        if self.peek() == Some(b'\'') || self.peek() == Some(b'"') {
            return self.parse_quoted_principal();
        }
        let start = self.pos;
        let word = self.word();
        if word.is_empty() {
            return Err(self.error("expected policy operator or principal"));
        }
        // `<digits>OutOf(...)` — the paper's NOutOf spelling.
        if let Some(num_end) = word.find(|c: char| !c.is_ascii_digit()) {
            if num_end > 0 && word[num_end..].eq_ignore_ascii_case("outof") {
                let n: u32 = word[..num_end]
                    .parse()
                    .map_err(|_| self.error("invalid count before OutOf"))?;
                let children = self.parse_args(None)?;
                return self.finish_out_of(n, children);
            }
        }
        match word.to_ascii_uppercase().as_str() {
            "AND" => {
                let children = self.parse_args(None)?;
                if children.is_empty() {
                    return Err(self.error("AND requires at least one operand"));
                }
                Ok(SignaturePolicy::And(children))
            }
            "OR" => {
                let children = self.parse_args(None)?;
                if children.is_empty() {
                    return Err(self.error("OR requires at least one operand"));
                }
                Ok(SignaturePolicy::Or(children))
            }
            "OUTOF" | "NOUTOF" => {
                let (n, children) = self.parse_out_of_args()?;
                self.finish_out_of(n, children)
            }
            _ => {
                // A bare principal like `org1.peer` (paper spelling).
                self.pos = start;
                let word = self.word();
                self.parse_principal_text(word)
            }
        }
    }

    fn finish_out_of(
        &self,
        n: u32,
        children: Vec<SignaturePolicy>,
    ) -> Result<SignaturePolicy, ParsePolicyError> {
        if children.is_empty() {
            return Err(self.error("OutOf requires at least one operand"));
        }
        if n as usize > children.len() {
            return Err(self.error(format!(
                "OutOf count {n} exceeds {} operands",
                children.len()
            )));
        }
        Ok(SignaturePolicy::OutOf(n, children))
    }

    /// Parses `(term, term, ...)`.
    fn parse_args(
        &mut self,
        first: Option<SignaturePolicy>,
    ) -> Result<Vec<SignaturePolicy>, ParsePolicyError> {
        self.eat(b'(')?;
        let mut out = Vec::new();
        if let Some(f) = first {
            out.push(f);
        }
        self.skip_ws();
        if self.peek() == Some(b')') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            out.push(self.parse_term()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b')') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return Err(self.error("expected ',' or ')'")),
            }
        }
    }

    /// Parses `(n, term, ...)` for the Fabric `OutOf` spelling.
    fn parse_out_of_args(&mut self) -> Result<(u32, Vec<SignaturePolicy>), ParsePolicyError> {
        self.eat(b'(')?;
        self.skip_ws();
        let digits = self.word();
        let n: u32 = digits
            .parse()
            .map_err(|_| self.error("OutOf requires a leading integer count"))?;
        self.skip_ws();
        let mut children = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    children.push(self.parse_term()?);
                }
                Some(b')') => {
                    self.pos += 1;
                    return Ok((n, children));
                }
                _ => return Err(self.error("expected ',' or ')'")),
            }
        }
    }

    fn parse_quoted_principal(&mut self) -> Result<SignaturePolicy, ParsePolicyError> {
        let quote = self.peek().expect("caller checked quote");
        self.pos += 1;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == quote {
                let text = &self.input[start..self.pos];
                self.pos += 1;
                return self.parse_principal_text(text);
            }
            self.pos += 1;
        }
        Err(self.error("unterminated quoted principal"))
    }

    /// Fabric's principal grammar, `^([[:alnum:].-]+)\.(admin|member|client|peer|orderer)$`:
    /// the org is ASCII letters, digits, dots and dashes, and the role is
    /// one lower-case word after the last dot.
    fn parse_principal_text(&self, text: &str) -> Result<SignaturePolicy, ParsePolicyError> {
        let Some((org, role)) = text.rsplit_once('.') else {
            return Err(self.error(format!("principal {text:?} must have the form Org.role")));
        };
        if org.is_empty() {
            return Err(self.error("principal has empty organization"));
        }
        if let Some(c) = org
            .chars()
            .find(|c| !(c.is_ascii_alphanumeric() || *c == '.' || *c == '-'))
        {
            return Err(self.error(format!("organization {org:?} contains {c:?}")));
        }
        let role = match role {
            "member" => PrincipalRole::Member,
            _ => match Role::parse(role) {
                Some(r) => PrincipalRole::Exact(r),
                None => return Err(self.error(format!("unknown role {role:?}"))),
            },
        };
        Ok(SignaturePolicy::Principal(Principal::new(org, role)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::OrgId;

    fn principal(org: &str, role: PrincipalRole) -> SignaturePolicy {
        SignaturePolicy::Principal(Principal::new(org, role))
    }

    #[test]
    fn parses_fabric_spelling() {
        let p = parse_signature_policy("AND('Org1MSP.peer', 'Org2MSP.member')").unwrap();
        assert_eq!(
            p,
            SignaturePolicy::And(vec![
                principal("Org1MSP", PrincipalRole::Exact(Role::Peer)),
                principal("Org2MSP", PrincipalRole::Member),
            ])
        );
    }

    #[test]
    fn parses_paper_spelling() {
        // §IV-A5: 2OutOf(org1.peer, org2.peer, org3.peer, org4.peer, org5.peer)
        let p =
            parse_signature_policy("2OutOf(org1.peer, org2.peer, org3.peer, org4.peer, org5.peer)")
                .unwrap();
        match p {
            SignaturePolicy::OutOf(2, children) => assert_eq!(children.len(), 5),
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_fabric_out_of() {
        let p = parse_signature_policy("OutOf(2, 'Org1MSP.peer', 'Org2MSP.peer')").unwrap();
        assert_eq!(
            p,
            SignaturePolicy::OutOf(
                2,
                vec![
                    principal("Org1MSP", PrincipalRole::Exact(Role::Peer)),
                    principal("Org2MSP", PrincipalRole::Exact(Role::Peer)),
                ]
            )
        );
    }

    #[test]
    fn parses_nested_expressions() {
        let p = parse_signature_policy("OR(AND('Org1MSP.peer','Org2MSP.peer'), 'Org3MSP.admin')")
            .unwrap();
        match p {
            SignaturePolicy::Or(children) => {
                assert_eq!(children.len(), 2);
                assert!(matches!(children[0], SignaturePolicy::And(_)));
            }
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_double_quotes() {
        let p = parse_signature_policy("OR(\"Org1MSP.peer\")").unwrap();
        assert_eq!(
            p,
            SignaturePolicy::Or(vec![principal("Org1MSP", PrincipalRole::Exact(Role::Peer))])
        );
    }

    #[test]
    fn org_names_may_contain_dots() {
        // rsplit_once: the role is after the *last* dot.
        let p = parse_signature_policy("'acme-1.example.peer'").unwrap();
        assert_eq!(
            p,
            principal("acme-1.example", PrincipalRole::Exact(Role::Peer))
        );
    }

    #[test]
    fn rejects_malformed_inputs() {
        for bad in [
            "",
            "AND(",
            "AND()",
            "AND('Org1MSP.peer'",
            "XOR('Org1MSP.peer')",
            "'Org1MSP'",
            "'Org1MSP.banker'",
            "OutOf(9,'Org1MSP.peer')",
            "OutOf(x,'Org1MSP.peer')",
            "AND('Org1MSP.peer') trailing",
            "'.peer'",
            "'Org3 MSP.peer'",
            "'Org1_MSP.peer'",
            "'Org1MSP.membeR'",
            "'Org1MSP.Peer'",
            "'Org1MSP.ADMIN'",
        ] {
            assert!(
                parse_signature_policy(bad).is_err(),
                "should reject {bad:?}"
            );
        }
    }

    #[test]
    fn error_carries_position() {
        let err = parse_signature_policy("AND('Org1MSP.peer',").unwrap_err();
        assert!(err.position >= 18, "position was {}", err.position);
        assert!(!err.message.is_empty());
        assert!(err.to_string().contains("policy parse error"));
    }

    #[test]
    fn implicit_meta_parses() {
        let p = parse_implicit_meta("MAJORITY Endorsement").unwrap();
        assert_eq!(p.rule, ImplicitMetaRule::Majority);
        assert_eq!(p.sub_policy, "Endorsement");
        assert!(parse_implicit_meta("SOME Endorsement").is_err());
        assert!(parse_implicit_meta("MAJORITY").is_err());
        assert!(parse_implicit_meta("MAJORITY Endorsement extra").is_err());
    }

    #[test]
    fn organizations_from_parsed_policy() {
        let p = parse_signature_policy("2OutOf(org1.peer, org2.peer, org3.peer)").unwrap();
        assert_eq!(
            p.organizations(),
            vec![OrgId::new("org1"), OrgId::new("org2"), OrgId::new("org3")]
        );
    }
}
