#![warn(missing_docs)]

//! Email substrate: an RFC 822/2045-style message model built from scratch.
//!
//! CrawlerBox's parsing phase (paper §IV-B) "scans recursively all the parts
//! and subparts of an email message", dispatching on each part's
//! `Content-Type`. That requires a real MIME implementation: header folding,
//! `Content-Type` parameter parsing (multipart boundaries), base64 and
//! quoted-printable transfer decodings, nested `message/rfc822` parts, and a
//! builder so the corpus generator can synthesize byte-exact messages.
//!
//! The crate also models the email authentication results the paper reports
//! (§V-C1: *all* reported messages passed SPF, DKIM and DMARC).
//!
//! # Example
//!
//! ```
//! use cb_email::{MessageBuilder, MimeEntity};
//!
//! let raw = MessageBuilder::new()
//!     .from("billing@partner.example")
//!     .to("victim@corp.example")
//!     .subject("Past due balance")
//!     .text_body("Please remit payment at https://evil-site.example/pay")
//!     .build();
//! let msg = MimeEntity::parse(&raw).unwrap();
//! assert_eq!(msg.header("Subject"), Some("Past due balance"));
//! assert!(msg.body_text().unwrap().contains("evil-site"));
//! ```

pub mod address;
pub mod auth;
pub mod codec;
pub mod content_type;
pub mod header;
pub mod message;
#[doc(hidden)]
pub mod reference;
pub mod view;

pub use address::EmailAddress;
pub use auth::{AuthResults, AuthVerdict};
pub use content_type::{ContentType, MediaType};
pub use header::{HeaderMap, ParseHeaderError};
pub use message::{MessageBuilder, MimeBody, MimeEntity, ParseMessageError};
pub use view::{ContentTypeRef, HeaderField, HeaderIter};
