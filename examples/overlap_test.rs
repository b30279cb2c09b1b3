use crawlerbox_suite::prelude::*;

fn main() {
    for seed in [1u64, 7, 13, 21, 42, 55, 99] {
        let spec = CorpusSpec::paper().with_scale(1.0);
        let corpus = Corpus::generate(&spec, seed);
        let mut overlap_msgs = 0usize;
        let mut overlap = 0usize;
        for c in &corpus.campaigns {
            if c.cloak.client.victim_db_check
                && (c.cloak.client.otp_gate || c.cloak.client.math_challenge)
            {
                overlap += 1;
                overlap_msgs += c.message_count;
            }
        }
        println!("seed {seed}: overlap campaigns {overlap} msgs {overlap_msgs}");
        if overlap > 0 {
            let cbx = CrawlerBox::new(&corpus.world);
            for m in &corpus.messages {
                if let Some(ci) = m.truth.campaign {
                    let c = &corpus.campaigns[ci];
                    if c.cloak.client.victim_db_check
                        && (c.cloak.client.otp_gate || c.cloak.client.math_challenge)
                    {
                        let rec = cbx.scan(m);
                        println!(
                            "  msg {} truth {:?} derived {:?}",
                            m.id, m.truth.class, rec.class
                        );
                        break;
                    }
                }
            }
        }
    }
}
