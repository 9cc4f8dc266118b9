//! Publishing machine-readable homepages (§4).
//!
//! "FOAF defines machine-readable homepages based upon RDF and allows
//! weaving acquaintance networks. Golbeck has proposed some modifications
//! making FOAF support 'real' trust relationships instead of mere
//! acquaintanceship." Each agent's homepage carries:
//!
//! * a `foaf:Person` description with `foaf:knows` acquaintance links,
//! * reified `trust:Statement`s with continuous values (the Golbeck-style
//!   extension, §3.1's `t_i`),
//! * reified `rec:Rating`s with `urn:isbn:` product URIs (BLAM!-style
//!   machine-readable weblog ratings, §3.1's `r_i`),
//! * `rdfs:seeAlso` links to peers' homepage documents, which is what makes
//!   the network crawlable.

use semrec_core::Community;
use semrec_rdf::{vocab, BlankNode, Graph, Iri, Literal, Triple};
use semrec_trust::AgentId;

/// Derives the homepage *document* URI from an agent URI (fragment stripped).
pub fn homepage_uri(agent_uri: &str) -> String {
    homepage_of(agent_uri).to_owned()
}

/// [`homepage_uri`] without the allocation: `agent_uri` up to its fragment.
pub(crate) fn homepage_of(agent_uri: &str) -> &str {
    agent_uri.split_once('#').map_or(agent_uri, |(page, _)| page)
}

/// Builds the RDF graph of one agent's homepage.
pub fn homepage_graph(community: &Community, agent: AgentId) -> Graph {
    let info = community.agent(agent).expect("agent exists");
    let me = Iri::new_unchecked(info.uri.clone());
    let mut g = Graph::new();
    g.insert(Triple::new(me.clone(), vocab::rdf::type_(), vocab::foaf::person()));
    g.insert(Triple::new(
        me.clone(),
        vocab::foaf::nick(),
        Literal::simple(format!("agent-{}", agent.index())),
    ));

    for (i, &(peer, weight)) in community.trust.out_edges(agent).iter().enumerate() {
        let peer_uri = &community.agent(peer).expect("peer exists").uri;
        let peer_iri = Iri::new_unchecked(peer_uri.clone());
        g.insert(Triple::new(me.clone(), vocab::foaf::knows(), peer_iri.clone()));
        g.insert(Triple::new(
            me.clone(),
            vocab::rdfs::see_also(),
            Iri::new_unchecked(homepage_uri(peer_uri)),
        ));
        let stmt = BlankNode::new(format!("t{}_{i}", agent.index())).expect("valid label");
        g.insert(Triple::new(stmt.clone(), vocab::rdf::type_(), vocab::trust::statement()));
        g.insert(Triple::new(stmt.clone(), vocab::trust::truster(), me.clone()));
        g.insert(Triple::new(stmt.clone(), vocab::trust::trustee(), peer_iri));
        g.insert(Triple::new(stmt, vocab::trust::value(), Literal::decimal(weight)));
    }

    for (i, &(product, score)) in community.ratings_of(agent).iter().enumerate() {
        let identifier = &community.catalog.product(product).identifier;
        let rating = BlankNode::new(format!("r{}_{i}", agent.index())).expect("valid label");
        g.insert(Triple::new(rating.clone(), vocab::rdf::type_(), vocab::rec::rating()));
        g.insert(Triple::new(rating.clone(), vocab::rec::rater(), me.clone()));
        g.insert(Triple::new(
            rating.clone(),
            vocab::rec::product(),
            Iri::new_unchecked(identifier.clone()),
        ));
        g.insert(Triple::new(rating, vocab::rec::score(), Literal::decimal(score)));
    }
    g
}

/// Serializes one agent's homepage to Turtle.
pub fn homepage_turtle(community: &Community, agent: AgentId) -> String {
    semrec_rdf::writer::to_turtle(&homepage_graph(community, agent))
}

/// Serializes one agent's homepage to RDF/XML — the syntax FOAF actually
/// shipped in when the paper was written.
pub fn homepage_rdfxml(community: &Community, agent: AgentId) -> String {
    semrec_rdf::rdfxml::to_rdfxml(&homepage_graph(community, agent))
        .expect("homepage vocabularies serialize to RDF/XML")
}

/// The serialization an agent publishes their homepage in. "Messages are
/// exchanged by publishing or updating documents encoded in RDF, OWL, or
/// similar formats" (§2) — the crawler handles both transparently.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DocumentFormat {
    /// Turtle (`text/turtle`).
    #[default]
    Turtle,
    /// RDF/XML (`application/rdf+xml`), the 2004-era FOAF syntax.
    RdfXml,
}

impl DocumentFormat {
    /// The media type published with documents in this format.
    pub fn content_type(self) -> &'static str {
        match self {
            DocumentFormat::Turtle => "text/turtle",
            DocumentFormat::RdfXml => "application/rdf+xml",
        }
    }
}

/// Publishes every agent's homepage into a [`crate::store::DocumentWeb`].
///
/// Returns the number of documents published.
pub fn publish_community(community: &Community, web: &crate::store::DocumentWeb) -> usize {
    publish_community_as(community, web, DocumentFormat::Turtle)
}

/// Like [`publish_community`], with an explicit serialization format.
pub fn publish_community_as(
    community: &Community,
    web: &crate::store::DocumentWeb,
    format: DocumentFormat,
) -> usize {
    let mut count = 0;
    for agent in community.agents() {
        let uri = homepage_uri(&community.agent(agent).expect("agent exists").uri);
        let body = match format {
            DocumentFormat::Turtle => homepage_turtle(community, agent),
            DocumentFormat::RdfXml => homepage_rdfxml(community, agent),
        };
        web.publish(uri, body, format.content_type());
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use semrec_rdf::{turtle, Subject, Term};
    use semrec_taxonomy::fixtures::example1;

    fn community() -> (Community, Vec<AgentId>) {
        let e = example1();
        let products: Vec<_> = e.catalog.iter().collect();
        let mut c = Community::new(e.fig.taxonomy, e.catalog);
        let alice = c.add_agent("http://ex.org/alice#me").unwrap();
        let bob = c.add_agent("http://ex.org/bob#me").unwrap();
        c.trust.set_trust(alice, bob, 0.75).unwrap();
        c.set_rating(alice, products[0], 1.0).unwrap();
        c.set_rating(alice, products[2], -0.5).unwrap();
        (c, vec![alice, bob])
    }

    #[test]
    fn homepage_uri_strips_fragment() {
        assert_eq!(homepage_uri("http://ex.org/alice#me"), "http://ex.org/alice");
        assert_eq!(homepage_uri("http://ex.org/alice"), "http://ex.org/alice");
    }

    #[test]
    fn homepage_contains_person_trust_and_ratings() {
        let (c, agents) = community();
        let g = homepage_graph(&c, agents[0]);
        let me: Subject = Iri::new("http://ex.org/alice#me").unwrap().into();
        assert_eq!(
            g.object_for(&me, &vocab::rdf::type_()),
            Some(Term::Iri(vocab::foaf::person()))
        );
        assert_eq!(
            g.triples_matching(None, Some(&vocab::trust::value()), None).count(),
            1
        );
        assert_eq!(
            g.triples_matching(None, Some(&vocab::rec::score()), None).count(),
            2
        );
        // seeAlso points at bob's homepage document.
        assert_eq!(
            g.object_for(&me, &vocab::rdfs::see_also()),
            Some(Term::Iri(Iri::new("http://ex.org/bob").unwrap()))
        );
    }

    #[test]
    fn turtle_output_parses_back() {
        let (c, agents) = community();
        let doc = homepage_turtle(&c, agents[0]);
        let parsed = turtle::parse(&doc).unwrap();
        assert_eq!(parsed, homepage_graph(&c, agents[0]));
    }

    #[test]
    fn publish_community_covers_every_agent() {
        let (c, _) = community();
        let web = crate::store::DocumentWeb::new();
        let n = publish_community(&c, &web);
        assert_eq!(n, 2);
        assert_eq!(web.len(), 2);
        let doc = web.fetch("http://ex.org/alice").unwrap();
        assert_eq!(doc.content_type, "text/turtle");
        assert!(doc.body.contains("foaf:Person"));
    }
}
